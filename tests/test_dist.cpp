// Tests for tce/dist: processor grids, distributions, the §3.2 DistSize
// formula and the fused-loop counts of §3.3's MsgFactor (checked against
// numbers worked out in the paper), and Cannon choice enumeration.

#include <gtest/gtest.h>

#include <set>

#include "tce/common/error.hpp"
#include "tce/core/accounting.hpp"
#include "tce/dist/cannon_space.hpp"
#include "tce/expr/parser.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;


class DistFixture : public ::testing::Test {
 protected:
  DistFixture()
      : seq_(parse_formula_sequence(kPaperProgram)), sp_(seq_.space()) {}

  TensorRef tensor(const std::string& name) const {
    for (const auto& t : seq_.inputs()) {
      if (t.name == name) return t;
    }
    for (const auto& f : seq_.formulas()) {
      if (f.result.name == name) return f.result;
    }
    throw Error("no tensor " + name);
  }

  IndexId id(const char* n) const { return sp_.id(n); }

  FormulaSequence seq_;
  const IndexSpace& sp_;
};

// -------------------------------------------------------------------- Grid

TEST(ProcGrid, BuildsSquareGrids) {
  ProcGrid g = ProcGrid::make(64, 2);
  EXPECT_EQ(g.edge, 8u);
  EXPECT_EQ(g.nodes(), 32u);
  EXPECT_EQ(g.rank(2, 3), 19u);
  EXPECT_EQ(g.row(19), 2u);
  EXPECT_EQ(g.col(19), 3u);
  EXPECT_EQ(g.node_of(19), 9u);
}

TEST(ProcGrid, RejectsNonSquare) {
  EXPECT_THROW(ProcGrid::make(12, 2), ContractViolation);
}

TEST(ProcGrid, RejectsBadNodePacking) {
  EXPECT_THROW(ProcGrid::make(9, 2), ContractViolation);
}

// ---------------------------------------------------------- Distribution

TEST(Distribution, BasicsAndRendering) {
  IndexSpace sp;
  IndexId b = sp.add("b", 480);
  IndexId f = sp.add("f", 64);
  Distribution d(b, f);
  EXPECT_TRUE(d.contains(b));
  EXPECT_TRUE(d.contains(f));
  EXPECT_EQ(d.dim_of(b), 1);
  EXPECT_EQ(d.dim_of(f), 2);
  EXPECT_EQ(d.str(sp), "<b,f>");
  EXPECT_EQ(d.transposed().str(sp), "<f,b>");
  Distribution half(b, kNoIndex);
  EXPECT_EQ(half.str(sp), "<b,·>");
  EXPECT_FALSE(half.contains(f));
  EXPECT_TRUE(Distribution().undistributed());
}

TEST(Distribution, RejectsRepeatedIndex) {
  EXPECT_THROW(Distribution(3, 3), ContractViolation);
}

// §3.2(i) worked example: with P = 16 and the paper's extents, T1(b,c,d,f)
// distributed <b,f> and fused {c} has per-processor size
// N_b/4 · 1 · N_d · N_f/4 = 120·1·480·16 = 921,600 elements (7.2 MB).
TEST_F(DistFixture, PaperWorkedDistSizeExample) {
  ProcGrid g = ProcGrid::make(16, 2);
  TensorRef t1 = tensor("T1");
  Distribution alpha(id("b"), id("f"));
  IndexSet fused = IndexSet::single(id("c"));
  EXPECT_EQ(dist_size(t1, alpha, fused, sp_, g), 921'600u);
  EXPECT_EQ(dist_bytes(t1, alpha, fused, sp_, g), 921'600u * 8);
}

TEST_F(DistFixture, DistSizeFullyDistributedUnfusedIsTotalOverP) {
  // When two dims are distributed and nothing is fused, per-proc size is
  // total/P for extents divisible by √P.
  ProcGrid g = ProcGrid::make(64, 2);
  TensorRef d = tensor("D");
  Distribution alpha(id("d"), id("e"));
  EXPECT_EQ(dist_size(d, alpha, IndexSet(), sp_, g),
            d.num_elements(sp_) / 64);
}

TEST_F(DistFixture, DistSizeUndistributedUnfusedIsFullArray) {
  ProcGrid g = ProcGrid::make(16, 2);
  TensorRef d = tensor("D");
  EXPECT_EQ(dist_size(d, Distribution(), IndexSet(), sp_, g),
            d.num_elements(sp_));
}

TEST_F(DistFixture, DistRangeRoundsUpNonDivisibleExtents) {
  IndexSpace sp;
  IndexId x = sp.add("x", 10);
  ProcGrid g = ProcGrid::make(9, 3);  // edge 3; 10/3 -> 4
  EXPECT_EQ(dist_range(x, Distribution(x, kNoIndex), IndexSet(), sp, g),
            4u);
}

TEST_F(DistFixture, FusedDimensionContributesOne) {
  ProcGrid g = ProcGrid::make(16, 2);
  TensorRef t1 = tensor("T1");
  // Fuse everything: size collapses to 1 (a scalar per processor).
  EXPECT_EQ(dist_size(t1, Distribution(), t1.index_set(), sp_, g), 1u);
}

TEST_F(DistFixture, DistributionMustNameArrayDims) {
  ProcGrid g = ProcGrid::make(16, 2);
  TensorRef t1 = tensor("T1");  // dims b,c,d,f
  Distribution bad(id("a"), id("b"));
  EXPECT_FALSE(distribution_valid_for(bad, t1));
  EXPECT_THROW(dist_size(t1, bad, IndexSet(), sp_, g), ContractViolation);
}

// ------------------------------------------------------------- MsgFactor

// §3.3's MsgFactor as the search counts it (GeomCache::loops): the
// iterations of the fused loops around a collective.  The search never
// distributes a fused index, so each contributes its full extent N_j.

TEST_F(DistFixture, MsgFactorIsOneWhenUnfused) {
  const ProcGrid g = ProcGrid::make(16, 2);
  GeomCache geom(sp_, g);
  EXPECT_EQ(geom.loops(IndexSet()).trips, 1u);
  EXPECT_EQ(geom.loops(IndexSet()).repeat, 1.0);
}

TEST_F(DistFixture, MsgFactorCountsFusedLoopIterations) {
  // B[b,e,f,l] rotated inside the fused f loop: N_f = 64 messages.
  const ProcGrid g = ProcGrid::make(16, 2);
  GeomCache geom(sp_, g);
  const IndexSet fuse_f = IndexSet::single(id("f"));
  EXPECT_EQ(geom.loops(fuse_f).trips, 64u);
  EXPECT_EQ(geom.loops(fuse_f).repeat, 64.0);
}

TEST_F(DistFixture, MsgFactorMultipliesOverFusedDims) {
  // T1[b,c,d,f] inside fused c and f loops: 480 * 64.
  const ProcGrid g = ProcGrid::make(16, 2);
  GeomCache geom(sp_, g);
  const IndexSet fused = IndexSet::of({id("c"), id("f")});
  EXPECT_EQ(geom.loops(fused).trips, 480u * 64u);
  EXPECT_EQ(geom.loops(fused).repeat, 480.0 * 64.0);
}

// ------------------------------------------------------- Cannon choices

TEST_F(DistFixture, EnumeratesPaperPatternCount) {
  ContractionTree t = ContractionTree::from_sequence(seq_);
  // Root: S = sum_ck T2 * A with NI = NJ = NK = 2.
  const ContractionNode& root = t.node(t.root());
  auto choices = enumerate_cannon_choices(root);
  // Paper counts 3·NI·NJ·NK fully-assigned patterns; we additionally
  // enumerate the transposed orientation and unassigned (replicated)
  // positions.  With NI = NJ = NK = 2: per orientation, 8 full triples
  // with 3 rotation indices each, 12 two-assigned triples with 2, and 6
  // one-assigned with 1 → 54; doubled for orientation → 108.
  EXPECT_EQ(choices.size(), 108u);
  std::size_t fully_assigned = 0;
  for (const auto& c : choices) {
    if (c.i != kNoIndex && c.j != kNoIndex && c.k != kNoIndex) {
      ++fully_assigned;
    }
  }
  EXPECT_EQ(fully_assigned, 2u * 3u * 2u * 2u * 2u);
}

TEST_F(DistFixture, ChoiceDistributionsAreConsistent) {
  ContractionTree t = ContractionTree::from_sequence(seq_);
  const ContractionNode& root = t.node(t.root());
  for (const auto& c : enumerate_cannon_choices(root)) {
    // Exactly two of the three arrays rotate.
    int rotations = static_cast<int>(c.rotates_left()) +
                    static_cast<int>(c.rotates_right()) +
                    static_cast<int>(c.rotates_result());
    EXPECT_EQ(rotations, 2);
    // The rotation index is one of the chosen triplet.
    EXPECT_TRUE(c.rot == c.i || c.rot == c.j || c.rot == c.k);
    // The two rotating arrays move along opposite grid dimensions (their
    // shared coordinates with the fixed array are pinned on opposite
    // dims).
    std::vector<int> dims;
    if (c.rotates_left()) dims.push_back(c.left_rot_dim());
    if (c.rotates_right()) dims.push_back(c.right_rot_dim());
    if (c.rotates_result()) dims.push_back(c.result_rot_dim());
    ASSERT_EQ(dims.size(), 2u);
    EXPECT_EQ(dims[0] + dims[1], 3);  // {1,2} in some order
    // Distribution index sets match the roles.
    EXPECT_TRUE(c.left_dist().index_set().subset_of(
        root.left_indices | root.sum_indices));
    EXPECT_TRUE(c.right_dist().index_set().subset_of(
        root.right_indices | root.sum_indices));
    EXPECT_TRUE(c.result_dist().index_set().subset_of(
        root.tensor.index_set()));
  }
}

TEST(CannonChoices, HandlesEmptyIndexSets) {
  // Matrix–vector: y[i] = sum[k] M[i,k] * x[k]; J is empty.
  FormulaSequence seq = parse_formula_sequence(
      "index i = 16; index k = 8\ny[i] = sum[k] M[i,k] * x[k]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  auto choices = enumerate_cannon_choices(t.node(t.root()));
  // Candidates: i ∈ {i, ·}, j ∈ {·}, k ∈ {k, ·}.  Per orientation:
  // (i,·,k) → 2 rots, (i,·,·) → 1, (·,·,k) → 1; doubled → 8.
  EXPECT_EQ(choices.size(), 8u);
  for (const auto& c : choices) {
    EXPECT_EQ(c.j, kNoIndex);
    EXPECT_NE(c.rot, kNoIndex);
  }
}

TEST(CannonChoices, RejectsBatchContractions) {
  FormulaSequence seq = parse_formula_sequence(R"(
    index i, j, t = 8
    S[i,j,t] = A[i,t] * B[j,t]
  )");
  ContractionTree t = ContractionTree::from_sequence(seq);
  EXPECT_THROW(enumerate_cannon_choices(t.node(t.root())), Error);
}

}  // namespace
}  // namespace tce
