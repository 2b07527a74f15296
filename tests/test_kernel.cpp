// Tests for the local contraction kernels: the packed tiled GEMM must
// match the reference kernel (and a naive triple loop) on every shape,
// stay bitwise deterministic across thread counts, honor the
// kernel-selection layer and its TCE_KERNEL validation, cover the TTGT
// edge cases, keep plans/pseudocode byte-identical under every kernel
// setting, and emit its observability metrics.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
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
#include "tce/tensor/kernel_internal.hpp"
#include "tce/tensor/ttgt.hpp"

#include "block_reference.hpp"
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

/// C[i][j] after the micro-kernels' contract: c0 plus one chain per KC
/// panel, each starting at 0.0 and running in ascending k, fused
/// (std::fma) or as a rounded product then a sum.
double panel_chains(const std::vector<double>& a, const std::vector<double>& b,
                    double c0, std::size_t i, std::size_t j, std::size_t k,
                    std::size_t n, std::size_t kc, bool fused) {
  double c = c0;
  for (std::size_t pc = 0; pc < k; pc += kc) {
    double chain = 0.0;
    for (std::size_t p = pc; p < std::min(pc + kc, k); ++p) {
      if (fused) {
        chain = std::fma(a[i * k + p], b[p * n + j], chain);
      } else {
        // volatile keeps the compiler from contracting this into an fma.
        volatile double product = a[i * k + p] * b[p * n + j];
        chain += product;
      }
    }
    c += chain;
  }
  return c;
}

/// c + the \p kind kernel's product computed into a zeroed block: what
/// PackedGemm::multiply_acc must give bit for bit.  The tiled product
/// is the micro-kernels' per-KC-panel chains into a zeroed cell, fused,
/// or unfused when \p fused is false (the portable kernel may not
/// contract its multiply-add).
std::vector<double> fresh_product(KernelKind kind,
                                  const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  std::vector<double> c, std::size_t m,
                                  std::size_t k, std::size_t n,
                                  const TileConfig& tiles,
                                  bool fused = true) {
  std::vector<double> product(m * n, 0.0);
  if (kind == KernelKind::kTiled) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        product[i * n + j] = panel_chains(a, b, 0.0, i, j, k, n, tiles.kc,
                                          fused);
      }
    }
  } else {
    gemm_ref(a, b, product, m, k, n, tiles);
  }
  for (std::size_t i = 0; i < c.size(); ++i) c[i] += product[i];
  return c;
}

/// The tiled product \p got is one of fresh_product's: fused, or
/// unfused when the dispatched micro-kernel is the portable one.
bool is_fresh_product(const std::vector<double>& got, KernelKind kind,
                      const std::vector<double>& a,
                      const std::vector<double>& b,
                      const std::vector<double>& c, std::size_t m,
                      std::size_t k, std::size_t n, const TileConfig& tiles) {
  if (same_bits(got, fresh_product(kind, a, b, c, m, k, n, tiles))) {
    return true;
  }
  return kind == KernelKind::kTiled &&
         std::string(gemm_microkernel_isa()) != "avx2" &&
         same_bits(got, fresh_product(kind, a, b, c, m, k, n, tiles,
                                      /*fused=*/false));
}

/// Offsets of \p count positions \p stride apart: the identity walk of a
/// row-major matrix's rows (stride = row length) or columns (1).
std::vector<std::uint64_t> strided(std::size_t count, std::uint64_t stride) {
  std::vector<std::uint64_t> out(count);
  for (std::size_t x = 0; x < count; ++x) out[x] = x * stride;
  return out;
}

/// \p gemm's packs of row-major \p a (m×k) and \p b (k×n).
std::vector<double> pack_row_major_a(const PackedGemm& gemm,
                                     std::span<const double> a,
                                     std::size_t m, std::size_t k) {
  std::vector<double> out(gemm.a_size());
  gemm.pack_a(a, strided(m, k), strided(k, 1), out);
  return out;
}
std::vector<double> pack_row_major_b(const PackedGemm& gemm,
                                     std::span<const double> b,
                                     std::size_t k, std::size_t n) {
  std::vector<double> out(gemm.b_size());
  gemm.pack_b(b, strided(k, n), strided(n, 1), out);
  return out;
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
  gemm.multiply_acc(pack_row_major_a(gemm, a, m, k),
                    pack_row_major_b(gemm, b, k, n), c);
  return c;
}

void expect_gemms_agree(std::size_t m, std::size_t k, std::size_t n,
                        const TileConfig& tiles) {
  const std::vector<double> a = random_vec(m * k, 1);
  const std::vector<double> b = random_vec(k * n, 2);
  const std::vector<double> c0 = random_vec(m * n, 3);
  std::vector<double> want = c0;
  std::vector<double> got_ref = c0;
  gemm_naive(a, b, want, m, k, n);
  gemm_ref(a, b, got_ref, m, k, n, tiles);
  // |Δ| grows with the K-sum length; operands are in [-1, 1).
  const double tol = 1e-13 * static_cast<double>(k == 0 ? 1 : k);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got_ref[i], want[i], tol)
        << "ref " << m << "x" << k << "x" << n << " at " << i;
  }
  for (const KernelKind kind : {KernelKind::kReference, KernelKind::kTiled}) {
    const std::vector<double> got_packed =
        packed_product(kind, a, b, c0, m, k, n, tiles, /*threads=*/1);
    ASSERT_TRUE(is_fresh_product(got_packed, kind, a, b, c0, m, k, n, tiles))
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

TEST(Gemm, EveryMicroKernelAddsEdgeTilesExactly) {
  // Every (m mod MR, n mod NR) pair, each micro-kernel driven tile by tile
  // over KC panels of 64.  Padding lanes hold NaN, and C sits in a buffer
  // with guard cells before, after and between its rows: a lane outside
  // the valid corner that is read or written shows.
  const auto kernels = kernel_internal::runnable_micro_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().isa, gemm_microkernel_isa());
  constexpr std::size_t kc = 64, guard = 8, row_gap = 2;
  const double pad = std::numeric_limits<double>::quiet_NaN();
  const double sentinel = 1234.5;
  for (const kernel_internal::MicroKernel& micro : kernels) {
    const bool avx2 = std::string(micro.isa) == "avx2";
    for (const std::size_t k : {1u, 8u, 70u}) {
      for (std::size_t m = 1; m <= 17; ++m) {
        for (std::size_t n = 1; n <= 13; ++n) {
          const std::vector<double> a = random_vec(m * k, 20 + m);
          const std::vector<double> b = random_vec(k * n, 40 + n);
          const std::vector<double> c0 = random_vec(m * n, 60 + k);
          const std::size_t ldc = n + row_gap;
          std::vector<double> buf(guard + m * ldc + guard, sentinel);
          double* c = buf.data() + guard;
          for (std::size_t i = 0; i < m; ++i) {
            std::copy_n(&c0[i * n], n, c + i * ldc);
          }
          std::vector<double> ap(kMicroM * kc), bp(kMicroN * kc);
          for (std::size_t pc = 0; pc < k; pc += kc) {
            const std::size_t kc_eff = std::min(kc, k - pc);
            for (std::size_t ir = 0; ir < m; ir += kMicroM) {
              const std::size_t mr = std::min(kMicroM, m - ir);
              for (std::size_t p = 0; p < kc_eff; ++p) {
                for (std::size_t i = 0; i < kMicroM; ++i) {
                  ap[p * kMicroM + i] =
                      i < mr ? a[(ir + i) * k + pc + p] : pad;
                }
              }
              for (std::size_t jr = 0; jr < n; jr += kMicroN) {
                const std::size_t nr = std::min(kMicroN, n - jr);
                for (std::size_t p = 0; p < kc_eff; ++p) {
                  for (std::size_t j = 0; j < kMicroN; ++j) {
                    bp[p * kMicroN + j] =
                        j < nr ? b[(pc + p) * n + jr + j] : pad;
                  }
                }
                micro.fn(kc_eff, ap.data(), bp.data(), c + ir * ldc + jr, ldc,
                         mr, nr);
              }
            }
          }
          for (std::size_t x = 0; x < buf.size(); ++x) {
            const std::size_t cell = x - guard;
            const bool in_c = x >= guard && cell < m * ldc && cell % ldc < n;
            if (!in_c) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(buf[x]),
                        std::bit_cast<std::uint64_t>(sentinel))
                  << micro.isa << " " << m << "x" << k << "x" << n
                  << " guard cell " << x;
              continue;
            }
            const std::size_t i = cell / ldc, j = cell % ldc;
            const auto got = std::bit_cast<std::uint64_t>(buf[x]);
            const auto fused = std::bit_cast<std::uint64_t>(
                panel_chains(a, b, c0[i * n + j], i, j, k, n, kc, true));
            const auto unfused = std::bit_cast<std::uint64_t>(
                panel_chains(a, b, c0[i * n + j], i, j, k, n, kc, false));
            // AVX2 fuses every step; the portable kernel fuses when the
            // compiler contracts its multiply-add.
            ASSERT_TRUE(got == fused || (!avx2 && got == unfused))
                << micro.isa << " " << m << "x" << k << "x" << n << " at ("
                << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(Gemm, BitwiseDeterministicAcrossThreadCounts) {
  const std::size_t m = 300, k = 150, n = 100;
  const std::vector<double> a = random_vec(m * k, 4);
  const std::vector<double> b = random_vec(k * n, 5);
  const TileConfig tiles;
  // K in one KC panel and across three.
  const std::vector<double> c0(m * n, 0.5);
  TileConfig short_kc;
  short_kc.kc = 64;
  for (const TileConfig& t : {tiles, short_kc}) {
    for (const KernelKind kind :
         {KernelKind::kReference, KernelKind::kTiled}) {
      const std::vector<double> want =
          packed_product(kind, a, b, c0, m, k, n, t, /*threads=*/1);
      ASSERT_TRUE(is_fresh_product(want, kind, a, b, c0, m, k, n, t))
          << kernel_kind_name(kind) << " kc=" << t.kc;
      for (unsigned threads : {2u, 3u, 8u, 0u}) {
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

/// Restores the prior kernel config and TCE_KERNEL on scope exit.
class EnvGuard {
 public:
  EnvGuard() : saved_(kernel_config()) {}
  ~EnvGuard() {
    ::unsetenv("TCE_KERNEL");
    set_kernel_config(saved_);
  }

 private:
  KernelConfig saved_;
};

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
  const DenseTensor c({0, 2}, {3, 5});
  const TtgtLowering low =
      lower_ttgt(g, a, a.extents(), b, b.extents(), c, c.extents());
  EXPECT_EQ(low.m(), 3u);
  EXPECT_EQ(low.n(), 5u);
  EXPECT_EQ(low.k(), 4u);
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
  const DenseTensor c({0, 1}, {6, 5});
  EXPECT_EQ(lower_ttgt(g, x, x.extents(), y, y.extents(), c, c.extents()).k(),
            1u);
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

/// One block triple of c += Σ_sums a·b inside full tensors.
struct BlockTriple {
  DenseTensor a, b, c;
  BlockRange ar, br, cr;
  IndexSet sums;
};

/// Lowers \p t's block triple and requires (1) packing each operand
/// block straight from its full tensor to equal packing the extracted
/// block through its own lowering, bit for bit, under the reference
/// kernel, the tiled kernel and tiled 8/8/8 tiles, and (2) the pack →
/// GEMM → scatter of the full tensors to equal the one-shot lowering of
/// the extracted blocks bit for bit.
void expect_blocks_match(BlockTriple t) {
  const TtgtGroups g = classify_ttgt(t.a, t.b, t.c.dims(), t.sums);
  const TtgtLowering low = lower_ttgt(g, t.a, t.ar.extents(), t.b,
                                      t.br.extents(), t.c, t.cr.extents());
  const DenseTensor ab = extract_block(t.a, t.ar);
  const DenseTensor bb = extract_block(t.b, t.br);
  DenseTensor cb(t.c.dims(), t.cr.extents());
  const TtgtLowering own = lower_ttgt(g, ab, ab.extents(), bb, bb.extents(),
                                      cb, cb.extents());
  const std::size_t m = low.m(), k = low.k(), n = low.n();

  TileConfig tiny;
  tiny.mc = tiny.kc = tiny.nc = 8;
  const auto a_full = t.a.data().subspan(t.a.offset(t.ar.lo));
  const auto b_full = t.b.data().subspan(t.b.offset(t.br.lo));
  for (const KernelConfig& cfg :
       {KernelConfig{KernelKind::kReference, TileConfig{}, 1},
        KernelConfig{KernelKind::kTiled, TileConfig{}, 1},
        KernelConfig{KernelKind::kTiled, tiny, 1}}) {
    const PackedGemm gemm(m, k, n, cfg);
    std::vector<double> got_a(gemm.a_size()), got_b(gemm.b_size());
    std::vector<double> want_a(gemm.a_size()), want_b(gemm.b_size());
    for (std::size_t bi = 0; bi < low.batch(); ++bi) {
      gemm.pack_a(a_full.subspan(low.a.batch[bi]), low.a.rows, low.a.cols,
                  got_a);
      gemm.pack_b(b_full.subspan(low.b.batch[bi]), low.b.rows, low.b.cols,
                  got_b);
      gemm.pack_a(ab.data().subspan(own.a.batch[bi]), own.a.rows,
                  own.a.cols, want_a);
      gemm.pack_b(bb.data().subspan(own.b.batch[bi]), own.b.rows,
                  own.b.cols, want_b);
      EXPECT_TRUE(same_bits(got_a, want_a))
          << kernel_kind_name(cfg.kind) << " mc=" << cfg.tiles.mc
          << " batch " << bi;
      EXPECT_TRUE(same_bits(got_b, want_b))
          << kernel_kind_name(cfg.kind) << " mc=" << cfg.tiles.mc
          << " batch " << bi;
    }
  }

  // Each batch of the full tensors packed, multiplied as a fresh product
  // and scattered back.
  PackedGemm gemm(m, k, n);
  std::vector<double> ap(gemm.a_size()), bp(gemm.b_size());
  std::vector<double> cm(low.c.size(), 0.0);
  for (std::size_t bi = 0; bi < low.batch(); ++bi) {
    gemm.pack_a(a_full.subspan(low.a.batch[bi]), low.a.rows, low.a.cols, ap);
    gemm.pack_b(b_full.subspan(low.b.batch[bi]), low.b.rows, low.b.cols, bp);
    gemm.multiply_acc(ap, bp, std::span<double>(cm).subspan(bi * m * n, m * n));
  }
  scatter_packed_acc(cm, low.c, t.c.data().subspan(t.c.offset(t.cr.lo)));

  ttgt_contract_acc(ab, bb, t.sums, cb);
  DenseTensor want(t.c.dims(), t.c.extents());
  place_block(cb, t.cr, want);
  EXPECT_EQ(std::memcmp(t.c.data().data(), want.data().data(),
                        t.c.size() * sizeof(double)),
            0);
}

TEST(Ttgt, BlocksOfFullTensorsMatchExtractedBlocks) {
  // Blocks at nonzero origins, walked through the full tensors' strides.
  Rng rng(12);
  {
    // C[b,m,n] += Σ_k A[k,b,m]·B[n,k,b]: batched, K outermost in A,
    // N outermost in B; C's column runs are contiguous.
    BlockTriple t{DenseTensor({3, 0, 1}, {6, 4, 5}),
                  DenseTensor({2, 3, 0}, {7, 6, 4}),
                  DenseTensor({0, 1, 2}, {4, 5, 7}),
                  BlockRange{{2, 1, 0}, {5, 3, 5}},
                  BlockRange{{3, 2, 1}, {7, 5, 3}},
                  BlockRange{{1, 0, 3}, {3, 5, 7}},
                  IndexSet::single(3)};
    t.a.fill_random(rng);
    t.b.fill_random(rng);
    const TtgtLowering low =
        lower_ttgt(classify_ttgt(t.a, t.b, t.c.dims(), t.sums), t.a,
                   t.ar.extents(), t.b, t.br.extents(), t.c, t.cr.extents());
    EXPECT_EQ(low.batch(), 2u);
    EXPECT_EQ(low.m(), 5u);
    EXPECT_EQ(low.k(), 3u);
    EXPECT_EQ(low.n(), 4u);
    EXPECT_EQ(low.c.col_run, 4u);
    expect_blocks_match(std::move(t));
  }
  {
    // The paper's T1[b,c,d,f] += Σ_{e,l} B[b,e,f,l]·D[c,d,e,l] with every
    // extent 8: D's N walk {c, d} has runs of stride E·L = 64, B's K walk
    // {e, l} runs of 4 (half of l), and m = k = n = 32 spans several
    // MC/KC/NC blocks at 8/8/8 tiles.
    enum : IndexId { b_, c_, d_, e_, f_, l_ };
    BlockTriple t{DenseTensor({b_, e_, f_, l_}, {8, 8, 8, 8}),
                  DenseTensor({c_, d_, e_, l_}, {8, 8, 8, 8}),
                  DenseTensor({b_, c_, d_, f_}, {8, 8, 8, 8}),
                  BlockRange{{4, 0, 0, 4}, {8, 8, 8, 8}},
                  BlockRange{{4, 0, 0, 4}, {8, 8, 8, 8}},
                  BlockRange{{4, 4, 0, 0}, {8, 8, 8, 8}},
                  IndexSet::of({e_, l_})};
    t.a.fill_random(rng);
    t.b.fill_random(rng);
    const TtgtLowering low =
        lower_ttgt(classify_ttgt(t.a, t.b, t.c.dims(), t.sums), t.a,
                   t.ar.extents(), t.b, t.br.extents(), t.c, t.cr.extents());
    EXPECT_EQ(low.m(), 32u);
    EXPECT_EQ(low.k(), 32u);
    EXPECT_EQ(low.n(), 32u);
    EXPECT_EQ(low.b.cols[1] - low.b.cols[0], 64u);
    EXPECT_EQ(low.b.col_run, 1u);
    EXPECT_EQ(low.a.col_run, 4u);
    expect_blocks_match(std::move(t));
  }
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

  // The packed-operand GEMM counts its panel packs once and each
  // multiply as one tiled call (ScopedMetrics starts from zero).
  PackedGemm gemm(n, n, n, KernelConfig{KernelKind::kTiled, TileConfig{}, 1});
  const std::vector<double> ap = pack_row_major_a(gemm, a, n, n);
  const std::vector<double> bp = pack_row_major_b(gemm, b, n, n);
  gemm.multiply_acc(ap, bp, c);
  gemm.multiply_acc(ap, bp, c);
  const auto after = obs::metrics_snapshot();
  ASSERT_TRUE(after.contains("kernel.gemm_s"));
  ASSERT_TRUE(after.contains("kernel.pack_bytes"));
  ASSERT_TRUE(after.contains("kernel.tiled_calls"));
  EXPECT_EQ(after.at("kernel.gemm_s").count, 2u);
  EXPECT_EQ(after.at("kernel.tiled_calls").total, 2u);
  EXPECT_EQ(after.at("kernel.pack_bytes").total,
            (ap.size() + bp.size()) * sizeof(double));

  // A one-shot contraction with no batch label packs each operand once
  // and zero-fills and scatters its m×n result buffer: one tiled call.
  const std::uint64_t tm = 37, tk = 50, tn = 29;
  Rng rng(15);
  DenseTensor ta({0, 1}, {tm, tk}), tb({1, 2}, {tk, tn}), tc({0, 2}, {tm, tn});
  ta.fill_random(rng);
  tb.fill_random(rng);
  const KernelConfig tiled{KernelKind::kTiled, TileConfig{}, 1};
  const ScopedKernelConfig force(tiled);
  const PackedGemm shape(tm, tk, tn, tiled);
  ttgt_contract_acc(ta, tb, IndexSet::single(1), tc);
  const auto one_shot = obs::metrics_snapshot();
  EXPECT_EQ(one_shot.at("kernel.pack_bytes").total,
            after.at("kernel.pack_bytes").total +
                (shape.a_size() + shape.b_size() + 2 * tm * tn) *
                    sizeof(double));
  EXPECT_EQ(one_shot.at("kernel.tiled_calls").total,
            after.at("kernel.tiled_calls").total + 1);
}

}  // namespace
}  // namespace tce
