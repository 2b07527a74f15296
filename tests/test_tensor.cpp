// Tests for tce/tensor: dense tensors, reference einsum, the matmul fast
// path, and distributed block geometry.

#include <gtest/gtest.h>

#include "tce/common/error.hpp"
#include "tce/expr/parser.hpp"
#include "tce/tensor/block.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/ttgt.hpp"

#include "block_reference.hpp"

namespace tce {
namespace {

// ------------------------------------------------------------- DenseTensor

TEST(DenseTensor, StridesAreRowMajor) {
  DenseTensor t({0, 1, 2}, {2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.stride(0), 12u);
  EXPECT_EQ(t.stride(1), 4u);
  EXPECT_EQ(t.stride(2), 1u);
  std::vector<std::uint64_t> idx{1, 2, 3};
  t.at(idx) = 7.5;
  EXPECT_EQ(t.data()[23], 7.5);
}

TEST(DenseTensor, ScalarHasOneElement) {
  DenseTensor s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.size(), 1u);
  std::vector<std::uint64_t> idx{};
  s.at(idx) = 3.0;
  EXPECT_EQ(s.data()[0], 3.0);
}

TEST(DenseTensor, LabelLookups) {
  DenseTensor t({5, 9}, {4, 6});
  EXPECT_TRUE(t.has_dim(5));
  EXPECT_FALSE(t.has_dim(3));
  EXPECT_EQ(t.pos_of(9), 1u);
  EXPECT_EQ(t.extent_of(9), 6u);
  EXPECT_THROW(t.pos_of(3), Error);
}

TEST(DenseTensor, RejectsDuplicateLabels) {
  EXPECT_THROW(DenseTensor({1, 1}, {2, 2}), ContractViolation);
}

TEST(DenseTensor, MaxAbsDiffRequiresSameShape) {
  DenseTensor a({0}, {3}), b({0}, {3}), c({0}, {4});
  a.fill(1.0);
  b.fill(1.5);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
  EXPECT_THROW(a.max_abs_diff(c), ContractViolation);
}

TEST(MultiIndexTest, CountsAndAdvances) {
  std::vector<std::uint64_t> e{2, 3};
  MultiIndex mi(e);
  EXPECT_EQ(mi.count(), 6u);
  int n = 0;
  do {
    ++n;
  } while (mi.advance());
  EXPECT_EQ(n, 6);
}

// ------------------------------------------------------------------ Einsum

TEST(Einsum, MatrixMultiplyMatchesManual) {
  // C[i,j] = sum_k A[i,k] B[k,j] on 2x2.
  DenseTensor a({0, 2}, {2, 2}), b({2, 1}, {2, 2});
  a.data()[0] = 1;
  a.data()[1] = 2;
  a.data()[2] = 3;
  a.data()[3] = 4;
  b.data()[0] = 5;
  b.data()[1] = 6;
  b.data()[2] = 7;
  b.data()[3] = 8;
  DenseTensor c = einsum_pair(a, b, {0, 1}, IndexSet::single(2));
  EXPECT_DOUBLE_EQ(c.data()[0], 19);
  EXPECT_DOUBLE_EQ(c.data()[1], 22);
  EXPECT_DOUBLE_EQ(c.data()[2], 43);
  EXPECT_DOUBLE_EQ(c.data()[3], 50);
}

TEST(Einsum, BatchProductKeepsSharedIndex) {
  // C[t] = A[t] * B[t] (Hadamard).
  DenseTensor a({0}, {3}), b({0}, {3});
  for (int i = 0; i < 3; ++i) {
    a.data()[static_cast<size_t>(i)] = i + 1;
    b.data()[static_cast<size_t>(i)] = 10.0 * (i + 1);
  }
  DenseTensor c = einsum_pair(a, b, {0}, IndexSet());
  EXPECT_DOUBLE_EQ(c.data()[1], 40.0);
}

TEST(Einsum, ReduceSumsMissingDims) {
  DenseTensor a({0, 1}, {2, 3});
  a.fill(1.0);
  DenseTensor r = einsum_reduce(a, {0});
  EXPECT_DOUBLE_EQ(r.data()[0], 3.0);
  DenseTensor s = einsum_reduce(a, {});
  EXPECT_DOUBLE_EQ(s.data()[0], 6.0);
}

TEST(Einsum, RejectsExtentMismatch) {
  DenseTensor a({0, 1}, {2, 3}), b({1, 2}, {4, 5});
  EXPECT_THROW(einsum_pair(a, b, {0, 2}, IndexSet::single(1)), Error);
}

TEST(Einsum, RejectsSummedLabelInResult) {
  DenseTensor a({0, 1}, {2, 3}), b({1, 2}, {3, 5});
  EXPECT_THROW(einsum_pair(a, b, {0, 1}, IndexSet::single(1)), Error);
}

TEST(EvaluateTree, FigureOneNumerics) {
  // S(t) = sum_j (sum_i A(i,j,t)) * (sum_k B(j,k,t)) on small extents.
  FormulaSequence seq = parse_formula_sequence(R"(
    index i = 3; index j = 4; index k = 5; index t = 2
    T1[j,t] = sum[i] A[i,j,t]
    T2[j,t] = sum[k] B[j,k,t]
    T3[j,t] = T1[j,t] * T2[j,t]
    S[t] = sum[j] T3[j,t]
  )");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  Rng rng(42);
  auto inputs = make_random_inputs(tree, rng);
  DenseTensor s = evaluate_tree(tree, inputs);

  // Manual evaluation.
  const IndexSpace& sp = tree.space();
  const auto I = sp.extent(sp.id("i")), J = sp.extent(sp.id("j")),
             K = sp.extent(sp.id("k")), T = sp.extent(sp.id("t"));
  const DenseTensor& A = inputs.at("A");
  const DenseTensor& B = inputs.at("B");
  for (std::uint64_t t = 0; t < T; ++t) {
    double want = 0;
    for (std::uint64_t j = 0; j < J; ++j) {
      double t1 = 0, t2 = 0;
      for (std::uint64_t i = 0; i < I; ++i) {
        t1 += A.at(std::vector<std::uint64_t>{i, j, t});
      }
      for (std::uint64_t k = 0; k < K; ++k) {
        t2 += B.at(std::vector<std::uint64_t>{j, k, t});
      }
      want += t1 * t2;
    }
    EXPECT_NEAR(s.at(std::vector<std::uint64_t>{t}), want, 1e-10);
  }
}

TEST(EvaluateTree, MissingInputThrows) {
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index i, j = 3\nS[j] = sum[i] A[i,j]"));
  EXPECT_THROW(evaluate_tree(tree, {}), Error);
}

// ------------------------------------------------------------------ Matmul

TEST(Matmul, AgreesWithEinsumOnRandomShapes) {
  Rng rng(7);
  for (int iter = 0; iter < 10; ++iter) {
    const auto m = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    const auto k = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    const auto n = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    DenseTensor a({0, 1}, {m, k}), b({1, 2}, {k, n});
    a.fill_random(rng);
    b.fill_random(rng);
    DenseTensor want = einsum_pair(a, b, {0, 2}, IndexSet::single(1));
    DenseTensor got({0, 2}, {m, n});
    ttgt_contract_acc(a, b, IndexSet::single(1), got);
    EXPECT_LT(want.max_abs_diff(got), 1e-12);
  }
}

TEST(Matmul, MultiDimGroupsAgreeWithEinsum) {
  // C[a,b,c,d] = sum_{e,f} A[a,e,b,f] B[f,c,e,d] — interleaved dims force
  // nontrivial packing.
  Rng rng(11);
  DenseTensor a({0, 4, 1, 5}, {2, 3, 4, 2});
  DenseTensor b({5, 2, 4, 3}, {2, 3, 3, 2});
  a.fill_random(rng);
  b.fill_random(rng);
  IndexSet sum = IndexSet::of({4, 5});
  DenseTensor want = einsum_pair(a, b, {0, 1, 2, 3}, sum);
  DenseTensor got({0, 1, 2, 3}, {2, 4, 3, 2});
  ttgt_contract_acc(a, b, sum, got);
  EXPECT_LT(want.max_abs_diff(got), 1e-12);
}

TEST(Matmul, AccumulatesIntoExistingResult) {
  Rng rng(3);
  DenseTensor a({0, 1}, {3, 3}), b({1, 2}, {3, 3});
  a.fill_random(rng);
  b.fill_random(rng);
  DenseTensor c({0, 2}, {3, 3});
  c.fill(1.0);
  ttgt_contract_acc(a, b, IndexSet::single(1), c);
  DenseTensor want = einsum_pair(a, b, {0, 2}, IndexSet::single(1));
  for (std::size_t i = 0; i < want.data().size(); ++i) {
    EXPECT_NEAR(c.data()[i], want.data()[i] + 1.0, 1e-12);
  }
}

TEST(Matmul, BatchLabelsContractPerSlice) {
  // Label 0 appears in a, b, and c: a TTGT batch dimension.  Each batch
  // slice is an independent dot product over label 1.
  Rng rng(13);
  DenseTensor a({0, 1}, {2, 3}), b({0, 1}, {2, 3});
  a.fill_random(rng);
  b.fill_random(rng);
  DenseTensor c({0}, {2});
  ttgt_contract_acc(a, b, IndexSet::single(1), c);
  for (std::uint64_t i = 0; i < 2; ++i) {
    double want = 0;
    for (std::uint64_t j = 0; j < 3; ++j) {
      const std::vector<std::uint64_t> ij{i, j};
      want += a.at(ij) * b.at(ij);
    }
    EXPECT_NEAR(c.at(std::vector<std::uint64_t>{i}), want, 1e-12);
  }
}

// ------------------------------------------------------------------ Blocks

class BlockFixture : public ::testing::Test {
 protected:
  BlockFixture() {
    a_ = space_.add("a", 8);
    b_ = space_.add("b", 8);
    c_ = space_.add("c", 6);
    ref_.name = "T";
    ref_.dims = {a_, b_, c_};
  }
  IndexSpace space_;
  IndexId a_{}, b_{}, c_{};
  TensorRef ref_;
  ProcGrid grid_ = ProcGrid::make(4, 2);
};

TEST_F(BlockFixture, RangeForDistributedDims) {
  BlockRange r =
      block_range(ref_, Distribution(a_, b_), space_, grid_, 1, 0);
  EXPECT_EQ(r.lo, (std::vector<std::uint64_t>{4, 0, 0}));
  EXPECT_EQ(r.hi, (std::vector<std::uint64_t>{8, 4, 6}));
  EXPECT_EQ(r.size(), 4u * 4u * 6u);
}

TEST_F(BlockFixture, UndistributedDimsAreWhole) {
  BlockRange r = block_range(ref_, Distribution(c_, kNoIndex), space_,
                             grid_, 1, 1);
  EXPECT_EQ(r.lo, (std::vector<std::uint64_t>{0, 0, 3}));
  EXPECT_EQ(r.hi, (std::vector<std::uint64_t>{8, 8, 6}));
}

TEST_F(BlockFixture, RejectsNonDividingExtent) {
  IndexSpace sp;
  IndexId x = sp.add("x", 7);  // 7 % 2 != 0
  TensorRef t;
  t.name = "T";
  t.dims = {x};
  EXPECT_THROW(block_range(t, Distribution(x, kNoIndex), sp, grid_, 0, 0),
               Error);
}

TEST_F(BlockFixture, ExtractPlaceRoundTripCoversArray) {
  DenseTensor full = make_tensor(ref_, space_);
  Rng rng(1);
  full.fill_random(rng);
  DenseTensor rebuilt = make_tensor(ref_, space_);
  Distribution alpha(a_, c_);
  for (std::uint32_t z1 = 0; z1 < grid_.edge; ++z1) {
    for (std::uint32_t z2 = 0; z2 < grid_.edge; ++z2) {
      BlockRange r = block_range(ref_, alpha, space_, grid_, z1, z2);
      DenseTensor blk = extract_block(full, r);
      place_block(blk, r, rebuilt);
    }
  }
  EXPECT_LT(full.max_abs_diff(rebuilt), 1e-15);
}

TEST_F(BlockFixture, AccumulateAddsReplicas) {
  DenseTensor full = make_tensor(ref_, space_);
  DenseTensor ones = make_tensor(ref_, space_);
  ones.fill(1.0);
  // Place the same all-ones "replica" twice with accumulation: every
  // element becomes 2.
  BlockRange whole =
      block_range(ref_, Distribution(), space_, grid_, 0, 0);
  accumulate_block(ones, whole, full);
  accumulate_block(ones, whole, full);
  DenseTensor twos = make_tensor(ref_, space_);
  twos.fill(2.0);
  EXPECT_LT(full.max_abs_diff(twos), 1e-15);
}

}  // namespace
}  // namespace tce
