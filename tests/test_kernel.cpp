// Tests for the local contraction kernels: the tiled packing GEMM must
// match the reference kernel (and a naive triple loop) on every shape,
// stay bitwise deterministic across thread counts, honor the
// kernel-selection layer and its TCE_TILE_* validation, cover the TTGT
// edge cases, keep plans/pseudocode byte-identical under every kernel
// setting, and emit its observability metrics.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "tce/codegen/codegen.hpp"
#include "tce/common/rng.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/block.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/matmul.hpp"
#include "tce/tensor/ttgt.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kPaperProgram;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform_real(-1.0, 1.0);
  return v;
}

/// Naive ground truth: C += A·B with no blocking at all.
void gemm_naive(const std::vector<double>& a, const std::vector<double>& b,
                std::vector<double>& c, std::size_t m, std::size_t k,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * k + p];
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

/// Bitwise equality of two result buffers.
bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// c + the \p kind kernel's product computed into a zeroed block: what
/// PackedGemm::multiply_acc must give bit for bit.
std::vector<double> fresh_product(KernelKind kind,
                                  const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  std::vector<double> c, std::size_t m,
                                  std::size_t k, std::size_t n,
                                  const TileConfig& tiles) {
  std::vector<double> product(m * n, 0.0);
  if (kind == KernelKind::kTiled) {
    gemm_tiled(a, b, product, m, k, n, tiles, /*threads=*/1);
  } else {
    gemm_ref(a, b, product, m, k, n, tiles);
  }
  for (std::size_t i = 0; i < c.size(); ++i) c[i] += product[i];
  return c;
}

/// c after a PackedGemm packs a and b once and multiplies them.
std::vector<double> packed_product(KernelKind kind,
                                   const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   std::vector<double> c, std::size_t m,
                                   std::size_t k, std::size_t n,
                                   const TileConfig& tiles,
                                   unsigned threads) {
  PackedGemm gemm(m, k, n, KernelConfig{kind, tiles, threads});
  std::vector<double> ap(gemm.a_size()), bp(gemm.b_size());
  gemm.pack_a(a, ap);
  gemm.pack_b(b, bp);
  gemm.multiply_acc(ap, bp, c);
  return c;
}

void expect_gemms_agree(std::size_t m, std::size_t k, std::size_t n,
                        const TileConfig& tiles) {
  const std::vector<double> a = random_vec(m * k, 1);
  const std::vector<double> b = random_vec(k * n, 2);
  const std::vector<double> c0 = random_vec(m * n, 3);
  std::vector<double> want = c0;
  std::vector<double> got_ref = c0;
  std::vector<double> got_tiled = c0;
  gemm_naive(a, b, want, m, k, n);
  gemm_ref(a, b, got_ref, m, k, n, tiles);
  gemm_tiled(a, b, got_tiled, m, k, n, tiles, /*threads=*/1);
  // |Δ| grows with the K-sum length; operands are in [-1, 1).
  const double tol = 1e-13 * static_cast<double>(k == 0 ? 1 : k);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got_ref[i], want[i], tol)
        << "ref " << m << "x" << k << "x" << n << " at " << i;
    ASSERT_NEAR(got_tiled[i], want[i], tol)
        << "tiled " << m << "x" << k << "x" << n << " at " << i;
  }
  for (const KernelKind kind : {KernelKind::kReference, KernelKind::kTiled}) {
    const std::vector<double> got_packed =
        packed_product(kind, a, b, c0, m, k, n, tiles, /*threads=*/1);
    ASSERT_TRUE(
        same_bits(got_packed, fresh_product(kind, a, b, c0, m, k, n, tiles)))
        << "packed " << kernel_kind_name(kind) << " " << m << "x" << k << "x"
        << n;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got_packed[i], want[i], tol)
          << "packed " << kernel_kind_name(kind) << " " << m << "x" << k
          << "x" << n << " at " << i;
    }
  }
}

TEST(Gemm, TiledMatchesNaiveAcrossShapes) {
  const TileConfig tiles;
  // Exercise partial micro-tiles (m % 8, n % 6), single rows/columns,
  // k = 1 (outer product), and shapes spanning the MC/KC/NC edges.
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {1, 7, 1},    {8, 6, 6},     {7, 5, 5},
      {9, 3, 7},   {17, 1, 13},  {64, 64, 64},  {37, 129, 61},
      {130, 257, 70}, {1, 300, 1}, {256, 9, 2},  {3, 40, 200},
  };
  for (const auto& s : shapes) expect_gemms_agree(s[0], s[1], s[2], tiles);
}

TEST(Gemm, TinyTilesStillCorrect) {
  // Pathologically small blocking forces many partial panels.
  TileConfig tiles;
  tiles.mc = 8;
  tiles.kc = 8;
  tiles.nc = 12;
  expect_gemms_agree(33, 29, 31, tiles);
}

TEST(Gemm, BitwiseDeterministicAcrossThreadCounts) {
  const std::size_t m = 300, k = 150, n = 100;
  const std::vector<double> a = random_vec(m * k, 4);
  const std::vector<double> b = random_vec(k * n, 5);
  const TileConfig tiles;
  std::vector<double> c1(m * n, 0.5);
  gemm_tiled(a, b, c1, m, k, n, tiles, 1);
  for (unsigned threads : {2u, 3u, 8u, 0u}) {
    std::vector<double> ct(m * n, 0.5);
    gemm_tiled(a, b, ct, m, k, n, tiles, threads);
    for (std::size_t i = 0; i < c1.size(); ++i) {
      ASSERT_EQ(c1[i], ct[i]) << "threads=" << threads << " at " << i;
    }
  }
  // The packed-operand GEMM, with K in one KC panel and across three.
  const std::vector<double> c0(m * n, 0.5);
  TileConfig short_kc;
  short_kc.kc = 64;
  for (const TileConfig& t : {tiles, short_kc}) {
    for (const KernelKind kind :
         {KernelKind::kReference, KernelKind::kTiled}) {
      const std::vector<double> want =
          fresh_product(kind, a, b, c0, m, k, n, t);
      for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
        ASSERT_TRUE(same_bits(
            packed_product(kind, a, b, c0, m, k, n, t, threads), want))
            << kernel_kind_name(kind) << " kc=" << t.kc
            << " threads=" << threads;
      }
    }
  }
}

TEST(Kernel, SelectKernelResolvesAuto) {
  EXPECT_EQ(select_kernel(KernelKind::kAuto, kAutoCutoffElems - 1),
            KernelKind::kReference);
  EXPECT_EQ(select_kernel(KernelKind::kAuto, kAutoCutoffElems),
            KernelKind::kTiled);
  // Explicit kinds pass through regardless of size.
  EXPECT_EQ(select_kernel(KernelKind::kReference, 1u << 30),
            KernelKind::kReference);
  EXPECT_EQ(select_kernel(KernelKind::kTiled, 1), KernelKind::kTiled);
}

TEST(Kernel, ParseKernelKind) {
  EXPECT_EQ(parse_kernel_kind("auto"), KernelKind::kAuto);
  EXPECT_EQ(parse_kernel_kind("ref"), KernelKind::kReference);
  EXPECT_EQ(parse_kernel_kind("reference"), KernelKind::kReference);
  EXPECT_EQ(parse_kernel_kind("tiled"), KernelKind::kTiled);
  EXPECT_THROW(parse_kernel_kind("fast"), KernelUsageError);
  EXPECT_THROW(parse_kernel_kind(""), KernelUsageError);
}

/// Restores the prior kernel config and TCE_TILE_MC on scope exit.
class EnvGuard {
 public:
  EnvGuard() : saved_(kernel_config()) {}
  ~EnvGuard() {
    ::unsetenv("TCE_TILE_MC");
    ::unsetenv("TCE_KERNEL");
    set_kernel_config(saved_);
  }

 private:
  KernelConfig saved_;
};

TEST(Kernel, TileEnvOverrideApplies) {
  EnvGuard guard;
  ::setenv("TCE_TILE_MC", "64", 1);
  reset_kernel_config_from_env();
  EXPECT_EQ(kernel_config().tiles.mc, 64u);
}

TEST(Kernel, MalformedTileEnvThrowsUsageError) {
  EnvGuard guard;
  for (const char* bad : {"0", "7", "2097152", "abc", "-8", "128x"}) {
    ::setenv("TCE_TILE_MC", bad, 1);
    reset_kernel_config_from_env();
    EXPECT_THROW(kernel_config(), KernelUsageError) << "TCE_TILE_MC=" << bad;
  }
}

TEST(Kernel, MalformedKernelEnvThrowsUsageError) {
  EnvGuard guard;
  ::setenv("TCE_KERNEL", "turbo", 1);
  reset_kernel_config_from_env();
  EXPECT_THROW(kernel_config(), KernelUsageError);
}

TEST(Kernel, ModelEfficiencyInUnitRange) {
  for (std::uint64_t n : {1ull, 8ull, 64ull, 1024ull, 16384ull}) {
    const double e = gemm_model_efficiency(n, n, n);
    EXPECT_GT(e, 0.0) << n;
    EXPECT_LE(e, 1.0) << n;
  }
  // Larger blocks amortize pack overhead: efficiency is monotone here.
  EXPECT_LT(gemm_model_efficiency(8, 8, 8),
            gemm_model_efficiency(1024, 1024, 1024));
}

// ------------------------------------------------------------- TTGT

TEST(Ttgt, ClassifiesGroups) {
  // C[a,c] = Σ_b A[a,b]·B[b,c]: a→M, c→N, b→K, no batch.
  DenseTensor a({0, 1}, {3, 4}), b({1, 2}, {4, 5});
  const TtgtGroups g = classify_ttgt(a, b, {0, 2}, IndexSet::single(1));
  EXPECT_TRUE(g.covered);
  EXPECT_TRUE(g.batch.empty());
  EXPECT_EQ(g.m, std::vector<IndexId>{0});
  EXPECT_EQ(g.n, std::vector<IndexId>{2});
  EXPECT_EQ(g.k, std::vector<IndexId>{1});
  EXPECT_EQ(g.m_elems, 3u);
  EXPECT_EQ(g.n_elems, 5u);
  EXPECT_EQ(g.k_elems, 4u);
}

TEST(Ttgt, BatchAndOneOperandSums) {
  // C[a] = Σ_{b,c,d} A[a,b,c]·B[a,b,d]: a→batch, b→K, c/d pre-reduced.
  DenseTensor a({0, 1, 2}, {2, 3, 4}), b({0, 1, 3}, {2, 3, 5});
  const TtgtGroups g =
      classify_ttgt(a, b, {0}, IndexSet::of({1, 2, 3}));
  EXPECT_TRUE(g.covered);
  EXPECT_EQ(g.batch, std::vector<IndexId>{0});
  EXPECT_EQ(g.k, std::vector<IndexId>{1});
  EXPECT_EQ(g.a_only_sum, std::vector<IndexId>{2});
  EXPECT_EQ(g.b_only_sum, std::vector<IndexId>{3});
}

void expect_ttgt_matches_einsum(const DenseTensor& a, const DenseTensor& b,
                                const std::vector<IndexId>& result_dims,
                                IndexSet sums) {
  const DenseTensor want = [&] {
    ScopedKernelConfig ref(KernelKind::kReference);
    return einsum_pair(a, b, result_dims, sums);
  }();
  std::vector<std::uint64_t> extents;
  for (IndexId d : result_dims) {
    extents.push_back(a.has_dim(d) ? a.extent_of(d) : b.extent_of(d));
  }
  DenseTensor got(result_dims, extents);
  ttgt_contract_acc(a, b, sums, got);
  EXPECT_LE(got.max_abs_diff(want), 1e-12);
}

TEST(Ttgt, RankZeroOperands) {
  // scalar · scalar → scalar, via a 1×1×1 GEMM.
  DenseTensor a, b;
  a.data()[0] = 3.0;
  b.data()[0] = -2.0;
  DenseTensor c;
  ttgt_contract_acc(a, b, IndexSet{}, c);
  EXPECT_DOUBLE_EQ(c.data()[0], -6.0);
  // Accumulates, not overwrites.
  ttgt_contract_acc(a, b, IndexSet{}, c);
  EXPECT_DOUBLE_EQ(c.data()[0], -12.0);
}

TEST(Ttgt, RankOneDotAndAxpy) {
  Rng rng(7);
  DenseTensor x({0}, {9}), y({0}, {9});
  x.fill_random(rng);
  y.fill_random(rng);
  // Dot product: everything is K.
  expect_ttgt_matches_einsum(x, y, {}, IndexSet::single(0));
  // Scale: shared index kept in the result (batch of 9, 1×1×1 GEMMs).
  expect_ttgt_matches_einsum(x, y, {0}, IndexSet{});
}

TEST(Ttgt, OuterProductHasEmptyK) {
  Rng rng(8);
  DenseTensor x({0}, {6}), y({1}, {5});
  x.fill_random(rng);
  y.fill_random(rng);
  const TtgtGroups g = classify_ttgt(x, y, {0, 1}, IndexSet{});
  EXPECT_TRUE(g.k.empty());
  EXPECT_EQ(g.k_elems, 1u);
  expect_ttgt_matches_einsum(x, y, {0, 1}, IndexSet{});
}

TEST(Ttgt, ExtentOneDimensions) {
  Rng rng(9);
  DenseTensor a({0, 1, 2}, {1, 5, 1}), b({1, 3}, {5, 1});
  a.fill_random(rng);
  b.fill_random(rng);
  expect_ttgt_matches_einsum(a, b, {0, 2, 3}, IndexSet::single(1));
}

TEST(Ttgt, PermutedOperandsMatchReference) {
  Rng rng(10);
  // Batched, transposed layouts: C[b,m,n] = Σ_k A[k,b,m]·B[n,k,b].
  DenseTensor a({3, 0, 1}, {6, 4, 5}), b({2, 3, 0}, {7, 6, 4});
  a.fill_random(rng);
  b.fill_random(rng);
  expect_ttgt_matches_einsum(a, b, {0, 1, 2}, IndexSet::single(3));
}

TEST(Ttgt, BlocksOfFullTensorsMatchExtractedBlocks) {
  // C[b,m,n] += Σ_k A[k,b,m]·B[n,k,b] on one block triple, gathered
  // straight out of the full tensors at nonzero origins, must equal the
  // one-shot lowering of the extracted blocks bit for bit.
  Rng rng(12);
  DenseTensor a({3, 0, 1}, {6, 4, 5});
  DenseTensor b({2, 3, 0}, {7, 6, 4});
  a.fill_random(rng);
  b.fill_random(rng);
  const BlockRange ar{{2, 1, 0}, {5, 3, 5}};
  const BlockRange br{{3, 2, 1}, {7, 5, 3}};
  const BlockRange cr{{1, 0, 3}, {3, 5, 7}};
  DenseTensor c({0, 1, 2}, {4, 5, 7});

  const TtgtGroups g = classify_ttgt(a, b, c.dims(), IndexSet::single(3));
  const TtgtLowering low = lower_ttgt(g, a, ar.extents(), b, br.extents(),
                                      c, cr.extents());
  EXPECT_EQ(low.batch(), 2u);
  EXPECT_EQ(low.m(), 5u);
  EXPECT_EQ(low.k(), 3u);
  EXPECT_EQ(low.n(), 4u);
  std::vector<double> am(low.a.size()), bm(low.b.size());
  std::vector<double> cm(low.c.size(), 0.0);
  gather_packed(a.data().subspan(a.offset(ar.lo)), low.a, am);
  gather_packed(b.data().subspan(b.offset(br.lo)), low.b, bm);
  const std::size_t as = low.m() * low.k(), bs = low.k() * low.n(),
                    cs = low.m() * low.n();
  for (std::size_t bi = 0; bi < low.batch(); ++bi) {
    matmul_acc(std::span<const double>(am).subspan(bi * as, as),
               std::span<const double>(bm).subspan(bi * bs, bs),
               std::span<double>(cm).subspan(bi * cs, cs), low.m(),
               low.k(), low.n());
  }
  scatter_packed_acc(cm, low.c, c.data().subspan(c.offset(cr.lo)));

  DenseTensor cb({0, 1, 2}, cr.extents());
  ttgt_contract_acc(extract_block(a, ar), extract_block(b, br),
                    IndexSet::single(3), cb);
  DenseTensor want({0, 1, 2}, {4, 5, 7});
  place_block(cb, cr, want);
  EXPECT_EQ(std::memcmp(c.data().data(), want.data().data(),
                        c.size() * sizeof(double)),
            0);
}

TEST(Einsum, KernelsAgreeOnFuzzedContractions) {
  Rng rng(11);
  for (int iter = 0; iter < 30; ++iter) {
    // Up to 4 labels split between A-only / B-only / shared; shared
    // labels are summed or kept at random.
    std::vector<IndexId> adims, bdims, result;
    IndexSet sums;
    for (IndexId l = 0; l < 4; ++l) {
      const std::int64_t role = rng.uniform_int(0, 5);
      const bool in_a = role == 0 || role >= 3;
      const bool in_b = role == 1 || role >= 3;
      if (in_a) adims.push_back(l);
      if (in_b) bdims.push_back(l);
      if (!in_a && !in_b) continue;
      if (role == 4 || (role < 3 && rng.uniform_int(0, 2) == 0)) {
        sums.insert(l);
      } else {
        result.push_back(l);
      }
    }
    std::vector<std::uint64_t> aext, bext, ext(4);
    for (auto& e : ext)
      e = static_cast<std::uint64_t>(rng.uniform_int(1, 5));
    for (IndexId l : adims) aext.push_back(ext[l]);
    for (IndexId l : bdims) bext.push_back(ext[l]);
    DenseTensor a(adims, aext), b(bdims, bext);
    a.fill_random(rng);
    b.fill_random(rng);
    DenseTensor ref_out, tiled_out;
    {
      ScopedKernelConfig force(KernelKind::kReference);
      ref_out = einsum_pair(a, b, result, sums);
    }
    {
      ScopedKernelConfig force(KernelKind::kTiled);
      tiled_out = einsum_pair(a, b, result, sums);
    }
    ASSERT_LE(tiled_out.max_abs_diff(ref_out), 1e-12) << "iter " << iter;
  }
}

TEST(Matmul, ContractBlocksAgreesAcrossKernels) {
  Rng rng(12);
  const std::uint64_t n = 40;
  DenseTensor a({0, 1}, {n, n}), b({1, 2}, {n, n});
  a.fill_random(rng);
  b.fill_random(rng);
  DenseTensor c_ref({0, 2}, {n, n}), c_tiled({0, 2}, {n, n});
  {
    ScopedKernelConfig force(KernelKind::kReference);
    ttgt_contract_acc(a, b, IndexSet::single(1), c_ref);
  }
  {
    ScopedKernelConfig force(KernelKind::kTiled);
    ttgt_contract_acc(a, b, IndexSet::single(1), c_tiled);
  }
  EXPECT_LE(c_tiled.max_abs_diff(c_ref), 1e-11);
}

// ---------------------------------------- planning is kernel-agnostic

/// Zeroes the search wall-clock fields — the only legitimately
/// nondeterministic part of a serialized plan.  (No std::regex: its
/// libstdc++ internals trip -Wmaybe-uninitialized under the sanitized
/// -Werror build.)
std::string strip_wall_times(const std::string& json) {
  std::string out;
  std::size_t from = 0;
  std::size_t pos = 0;
  while ((pos = json.find("wall_s\":", from)) != std::string::npos) {
    const std::size_t start = pos + 8;
    std::size_t end = start;
    while (end < json.size() &&
           std::string("0123456789.eE+-").find(json[end]) !=
               std::string::npos) {
      ++end;
    }
    out.append(json, from, start - from);
    out += '0';
    from = end;
  }
  out.append(json, from, std::string::npos);
  return out;
}

TEST(Kernel, PlansAndPseudocodeIdenticalUnderEveryKernelSetting) {
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  CharacterizedModel model(characterize_itanium(64));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4ull * 1000 * 1000 * 1000;

  std::string base_plan, base_code;
  for (const KernelKind kind :
       {KernelKind::kAuto, KernelKind::kReference, KernelKind::kTiled}) {
    ScopedKernelConfig force(kind);
    const OptimizedPlan plan = optimize(tree, model, cfg);
    const std::string plan_json =
        strip_wall_times(plan_to_json(plan, tree.space()));
    const std::string code =
        generate_pseudocode(tree, plan, model.grid().edge);
    if (base_plan.empty()) {
      base_plan = plan_json;
      base_code = code;
      // The annotation itself must be present when a grid edge is given.
      EXPECT_NE(code.find("kern="), std::string::npos) << code;
    } else {
      EXPECT_EQ(plan_json, base_plan) << kernel_kind_name(kind);
      EXPECT_EQ(code, base_code) << kernel_kind_name(kind);
    }
  }
}

// ------------------------------------------------------ observability

TEST(Kernel, TiledGemmEmitsMetrics) {
  obs::ScopedMetrics scoped;
  const std::size_t n = 64;
  const std::vector<double> a = random_vec(n * n, 13);
  const std::vector<double> b = random_vec(n * n, 14);
  std::vector<double> c(n * n, 0.0);
  gemm_tiled(a, b, c, n, n, n, TileConfig{}, 1);
  const auto snap = obs::metrics_snapshot();
  ASSERT_TRUE(snap.contains("kernel.gemm_s"));
  EXPECT_GE(snap.at("kernel.gemm_s").count, 1u);
  ASSERT_TRUE(snap.contains("kernel.pack_bytes"));
  EXPECT_GE(snap.at("kernel.pack_bytes").total,
            n * n * 2 * sizeof(double));
  ASSERT_TRUE(snap.contains("kernel.tiled_calls"));

  // The packed-operand GEMM counts its panel packs once and each
  // multiply as one tiled call.
  PackedGemm gemm(n, n, n, KernelConfig{KernelKind::kTiled, TileConfig{}, 1});
  std::vector<double> ap(gemm.a_size()), bp(gemm.b_size());
  gemm.pack_a(a, ap);
  gemm.pack_b(b, bp);
  gemm.multiply_acc(ap, bp, c);
  gemm.multiply_acc(ap, bp, c);
  const auto after = obs::metrics_snapshot();
  EXPECT_EQ(after.at("kernel.gemm_s").count,
            snap.at("kernel.gemm_s").count + 2);
  EXPECT_EQ(after.at("kernel.tiled_calls").total,
            snap.at("kernel.tiled_calls").total + 2);
  EXPECT_EQ(after.at("kernel.pack_bytes").total,
            snap.at("kernel.pack_bytes").total +
                (ap.size() + bp.size()) * sizeof(double));
}

}  // namespace
}  // namespace tce
