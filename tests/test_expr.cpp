// Tests for tce/expr: index spaces, index sets, formulas, trees, and the
// normalization into contraction form.

#include <gtest/gtest.h>

#include "tce/common/error.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/expr/parser.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;

// ---------------------------------------------------------------- IndexSet

TEST(IndexSet, BasicSetOperations) {
  IndexSet a = IndexSet::of({0, 2, 5});
  IndexSet b = IndexSet::of({2, 3});
  EXPECT_EQ((a | b), IndexSet::of({0, 2, 3, 5}));
  EXPECT_EQ((a & b), IndexSet::single(2));
  EXPECT_EQ((a - b), IndexSet::of({0, 5}));
  EXPECT_TRUE(IndexSet::single(2).subset_of(a));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_TRUE(IndexSet().empty());
}

TEST(IndexSet, IterationVisitsMembersInOrder) {
  IndexSet s = IndexSet::of({7, 1, 4});
  std::vector<IndexId> got;
  for (IndexId id : s) got.push_back(id);
  EXPECT_EQ(got, (std::vector<IndexId>{1, 4, 7}));
}

TEST(IndexSet, ExtentProduct) {
  IndexSpace space;
  IndexId a = space.add("a", 10);
  IndexId b = space.add("b", 7);
  space.add("c", 3);
  EXPECT_EQ(IndexSet::of({a, b}).extent_product(space), 70u);
  EXPECT_EQ(IndexSet().extent_product(space), 1u);
}

TEST(IndexSet, ForEachSubsetEnumeratesAllSubsets) {
  IndexSet s = IndexSet::of({1, 3, 6});
  std::vector<IndexSet> subsets;
  for_each_subset(s, [&](IndexSet sub) { subsets.push_back(sub); });
  EXPECT_EQ(subsets.size(), 8u);  // 2^3
  for (IndexSet sub : subsets) EXPECT_TRUE(sub.subset_of(s));
  // All distinct.
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    for (std::size_t j = i + 1; j < subsets.size(); ++j) {
      EXPECT_NE(subsets[i], subsets[j]);
    }
  }
}

// --------------------------------------------------------------- IndexSpace

TEST(IndexSpace, RegistersAndLooksUp) {
  IndexSpace space;
  IndexId a = space.add("alpha", 480);
  EXPECT_EQ(space.name(a), "alpha");
  EXPECT_EQ(space.extent(a), 480u);
  EXPECT_EQ(space.id("alpha"), a);
  EXPECT_TRUE(space.contains("alpha"));
  EXPECT_FALSE(space.contains("beta"));
  EXPECT_THROW(space.id("beta"), Error);
  EXPECT_THROW(space.add("alpha", 3), Error);
}

// ------------------------------------------------------------------ Parser


TEST(Parser, ParsesThePaperExample) {
  FormulaSequence seq = parse_formula_sequence(kPaperProgram);
  ASSERT_EQ(seq.formulas().size(), 3u);
  EXPECT_EQ(seq.output().name, "S");
  EXPECT_EQ(seq.inputs().size(), 4u);
  const IndexSpace& sp = seq.space();
  EXPECT_EQ(sp.extent(sp.id("a")), 480u);
  EXPECT_EQ(sp.extent(sp.id("f")), 64u);
  EXPECT_EQ(sp.extent(sp.id("l")), 32u);
  EXPECT_EQ(seq.formulas()[0].kind, Formula::Kind::kContract);
}

TEST(Parser, ParsesFigureOneStyleSumAndMult) {
  FormulaSequence seq = parse_formula_sequence(R"(
    index i = 10; index j = 20; index k = 30; index t = 5
    T1[j,t] = sum[i] A[i,j,t]
    T2[j,t] = sum[k] B[j,k,t]
    T3[j,t] = T1[j,t] * T2[j,t]
    S[t] = sum[j] T3[j,t]
  )");
  ASSERT_EQ(seq.formulas().size(), 4u);
  EXPECT_EQ(seq.formulas()[0].kind, Formula::Kind::kSum);
  EXPECT_EQ(seq.formulas()[2].kind, Formula::Kind::kMult);
  EXPECT_EQ(seq.output().name, "S");
  EXPECT_EQ(seq.output().rank(), 1u);
}

TEST(Parser, RejectsUnknownIndex) {
  EXPECT_THROW(parse_formula_sequence("T[x] = sum[y] A[x,y]"), Error);
}

TEST(Parser, RejectsMalformedSyntax) {
  EXPECT_THROW(parse_formula_sequence("index a = 4\nT[a = A[a]"),
               ParseError);
  EXPECT_THROW(parse_formula_sequence("index a = 0"), ParseError);
  EXPECT_THROW(parse_formula_sequence("index a = 4\nT[a] A[a]"),
               ParseError);
  EXPECT_THROW(parse_formula_sequence(""), ParseError);
}

TEST(Parser, RejectsDuplicateIndexDeclaration) {
  EXPECT_THROW(parse_formula_sequence("index a = 4\nindex a = 5"), Error);
}

TEST(Parser, MultiFactorStatementsNeedOpmin) {
  ParsedProgram p = parse_program(
      "index a, b, c = 4\nS[a] = sum[b,c] X[a,b] * Y[b,c] * Z[c]");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].factors.size(), 3u);
  EXPECT_THROW(to_formula_sequence(p), Error);
}

TEST(Parser, ReportsOffsetsInProgramCoordinates) {
  try {
    parse_formula_sequence("index a = 4\nT[a] = sum[] A[a]");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.pos(), 11u);  // past the first line
  }
}

// -------------------------------------------------------------- Validation

TEST(Validate, RejectsResultIndexMismatch) {
  EXPECT_THROW(parse_formula_sequence(R"(
    index a, b, c = 4
    T[a,b] = sum[c] A[a,c] * B[c,b]
    S[a] = sum[b] T[a,b]
    X[a] = S[a] * S[a]
  )"),
               Error);  // S consumed twice (not a tree)
}

TEST(Validate, RejectsNonTreeUse) {
  EXPECT_THROW(parse_formula_sequence(R"(
    index a, b, c = 4
    T[a,b] = sum[c] A[a,c] * B[c,b]
    U[a] = sum[b] T[a,b]
    V[b] = sum[a] T[a,b]
    S[] = sum[a,b] U[a] * V[b]
  )"),
               Error);
}

TEST(Validate, RejectsRepeatedIndexInTensor) {
  EXPECT_THROW(parse_formula_sequence(R"(
    index a, b = 4
    S[a] = sum[b] A[a,b,b]
  )"),
               Error);
}

TEST(Validate, RejectsSummationOverMissingIndex) {
  EXPECT_THROW(parse_formula_sequence(R"(
    index a, b, c = 4
    S[a] = sum[c] A[a,b]
  )"),
               Error);
}

TEST(Validate, RejectsWrongResultIndices) {
  EXPECT_THROW(parse_formula_sequence(R"(
    index a, b, c = 4
    S[a,c] = sum[c] A[a,c] * B[c,b]
  )"),
               Error);
}

// -------------------------------------------------------------- Expression tree

TEST(ExprTree, BuildsPaperTreeShape) {
  ExprTree tree =
      ExprTree::from_sequence(parse_formula_sequence(kPaperProgram));
  // 4 leaves + 3 contract nodes.
  EXPECT_EQ(tree.size(), 7u);
  const ExprNode& root = tree.node(tree.root());
  EXPECT_EQ(root.kind, ExprNode::Kind::kContract);
  EXPECT_EQ(root.tensor.name, "S");
  EXPECT_EQ(root.parent, kNoNode);
  std::vector<NodeId> order = tree.post_order();
  EXPECT_EQ(order.back(), tree.root());
}

TEST(ExprTree, PostOrderVisitsChildrenFirst) {
  ExprTree tree =
      ExprTree::from_sequence(parse_formula_sequence(kPaperProgram));
  std::vector<NodeId> order = tree.post_order();
  std::vector<bool> seen(tree.size(), false);
  for (NodeId id : order) {
    const ExprNode& n = tree.node(id);
    if (n.left != kNoNode) {
      EXPECT_TRUE(seen[static_cast<size_t>(n.left)]);
    }
    if (n.right != kNoNode) {
      EXPECT_TRUE(seen[static_cast<size_t>(n.right)]);
    }
    seen[static_cast<size_t>(id)] = true;
  }
}

// ------------------------------------------------------------ ContractionTree

TEST(ContractionTree, DecomposesPaperContractions) {
  ContractionTree t =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  EXPECT_EQ(t.size(), 7u);
  const IndexSpace& sp = t.space();
  const ContractionNode& root = t.node(t.root());
  ASSERT_EQ(root.kind, ContractionNode::Kind::kContraction);
  // S_abij = sum_ck T2_bcjk * A_acik: I (left=T2) = {b,j}, J = {a,i},
  // K = {c,k}.
  EXPECT_EQ(root.left_indices,
            IndexSet::of({sp.id("b"), sp.id("j")}));
  EXPECT_EQ(root.right_indices,
            IndexSet::of({sp.id("a"), sp.id("i")}));
  EXPECT_EQ(root.sum_indices, IndexSet::of({sp.id("c"), sp.id("k")}));
  EXPECT_TRUE(root.batch_indices.empty());
}

TEST(ContractionTree, MergesSumChainsOverMult) {
  // Decomposed single-sum style: both sums sit above the multiplication.
  // The shared index b must fold into the contraction's K (even though it
  // is summed *after* c in program order — summations commute); the index
  // c, present only in Y, stays in a reduce node.
  ContractionTree t = ContractionTree::from_sequence(parse_formula_sequence(R"(
    index a, b, c = 8
    P[a,b,c] = X[a,b] * Y[b,c]
    Q[a,b] = sum[c] P[a,b,c]
    R[a] = sum[b] Q[a,b]
  )"));
  // X, Y leaves + contraction + reduce = 4 nodes.
  ASSERT_EQ(t.size(), 4u);
  const IndexSpace& sp = t.space();
  const ContractionNode& root = t.node(t.root());
  ASSERT_EQ(root.kind, ContractionNode::Kind::kReduce);
  EXPECT_EQ(root.tensor.name, "R");
  EXPECT_EQ(root.sum_indices, IndexSet::single(sp.id("c")));
  const ContractionNode& mm = t.node(root.left);
  ASSERT_EQ(mm.kind, ContractionNode::Kind::kContraction);
  EXPECT_EQ(mm.sum_indices, IndexSet::single(sp.id("b")));
  EXPECT_EQ(mm.tensor.index_set(),
            IndexSet::of({sp.id("a"), sp.id("c")}));
  EXPECT_TRUE(mm.batch_indices.empty());
}

TEST(ContractionTree, SumDirectlyOverMultMergesFully) {
  ContractionTree t = ContractionTree::from_sequence(parse_formula_sequence(R"(
    index a, b, c = 8
    P[a,b,c] = X[a,b] * Y[b,c]
    Q[a,c] = sum[b] P[a,b,c]
  )"));
  ASSERT_EQ(t.size(), 3u);
  const ContractionNode& root = t.node(t.root());
  ASSERT_EQ(root.kind, ContractionNode::Kind::kContraction);
  EXPECT_EQ(root.tensor.name, "Q");
  const IndexSpace& sp = t.space();
  EXPECT_EQ(root.sum_indices, IndexSet::single(sp.id("b")));
  EXPECT_EQ(root.left_indices, IndexSet::single(sp.id("a")));
  EXPECT_EQ(root.right_indices, IndexSet::single(sp.id("c")));
}

TEST(ContractionTree, BatchIndicesDetectedAndNotCannon) {
  ContractionTree t = ContractionTree::from_sequence(parse_formula_sequence(R"(
    index i, j, k, t = 6
    T1[j,t] = sum[i] A[i,j,t]
    T2[j,t] = sum[k] B[j,k,t]
    T3[j,t] = T1[j,t] * T2[j,t]
    S[t] = sum[j] T3[j,t]
  )"));
  // Nodes: A, B leaves, two reduces, merged T3+S contraction.
  const ContractionNode& root = t.node(t.root());
  ASSERT_EQ(root.kind, ContractionNode::Kind::kContraction);
  const IndexSpace& sp = t.space();
  EXPECT_EQ(root.batch_indices, IndexSet::single(sp.id("t")));
  EXPECT_EQ(root.sum_indices, IndexSet::single(sp.id("j")));
}

TEST(ContractionTree, PureReduceOverLeaf) {
  ContractionTree t = ContractionTree::from_sequence(
      parse_formula_sequence("index i, j = 4\nS[j] = sum[i] A[i,j]"));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.node(t.root()).kind, ContractionNode::Kind::kReduce);
}

TEST(ContractionTree, FlopCountsMatchPaperExample) {
  ContractionTree t =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  // Step 1: 2 * 480^3 * 64 * 64 * 32; step 2: 2 * 480^3 * 64 * 32 * 32;
  // step 3: 2 * 480^3 * 32^3.
  const std::uint64_t n480 = 480ull * 480 * 480;
  std::uint64_t want = 2 * n480 * 64 * 64 * 32 + 2 * n480 * 64 * 32 * 32 +
                       2 * n480 * 32 * 32 * 32;
  EXPECT_EQ(t.total_flops(), want);
}

TEST(ContractionTree, TotalUnfusedBytesMatchesPaper) {
  ContractionTree t =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  // The paper: "the total memory requirements for the sum of all arrays is
  // ≈ 65.3GB" with 1 GB = 1,024,000,000 bytes.
  const double gb =
      static_cast<double>(t.total_bytes_unfused()) / 1'024'000'000.0;
  EXPECT_NEAR(gb, 65.3, 0.15);
}

TEST(ContractionTree, LeavesAreInputs) {
  ContractionTree t =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  std::vector<NodeId> ls = t.leaves();
  ASSERT_EQ(ls.size(), 4u);
  for (NodeId id : ls) {
    EXPECT_EQ(t.node(id).kind, ContractionNode::Kind::kInput);
  }
}

}  // namespace
}  // namespace tce
