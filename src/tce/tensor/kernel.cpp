#include "tce/tensor/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "tce/common/annotations.hpp"
#include "tce/common/checked.hpp"
#include "tce/common/parse.hpp"
#include "tce/common/thread_pool.hpp"
#include "tce/common/timer.hpp"
#include "tce/obs/metrics.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCE_KERNEL_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tce {

namespace {

constexpr std::size_t kTileMin = 8;
constexpr std::size_t kTileMax = std::size_t{1} << 20;

std::size_t round_up(std::size_t v, std::size_t unit) {
  return (v + unit - 1) / unit * unit;
}

/// Parses one TCE_TILE_* variable; absent keeps the default.
std::size_t env_tile(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto v = parse_u64_in(raw, kTileMin, kTileMax);
  if (!v.has_value()) {
    throw KernelUsageError(std::string(name) + "='" + raw +
                           "' must be an integer in [" +
                           std::to_string(kTileMin) + ", " +
                           std::to_string(kTileMax) + "]");
  }
  return static_cast<std::size_t>(*v);
}

unsigned env_threads(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return 0;
  const auto v = parse_u64_in(raw, 0, ThreadPool::kMaxThreads);
  if (!v.has_value()) {
    throw KernelUsageError(std::string(name) + "='" + raw +
                           "' must be an integer in [0, " +
                           std::to_string(ThreadPool::kMaxThreads) + "]");
  }
  return static_cast<unsigned>(*v);
}

KernelConfig config_from_env() {
  KernelConfig cfg;
  if (const char* raw = std::getenv("TCE_KERNEL");
      raw != nullptr && *raw != '\0') {
    cfg.kind = parse_kernel_kind(raw);
  }
  cfg.tiles.mc = env_tile("TCE_TILE_MC", cfg.tiles.mc);
  cfg.tiles.kc = env_tile("TCE_TILE_KC", cfg.tiles.kc);
  cfg.tiles.nc = env_tile("TCE_TILE_NC", cfg.tiles.nc);
  cfg.threads = env_threads("TCE_KERNEL_THREADS");
  return cfg;
}

/// The process-wide config.  Guarded by a mutex only for the rare
/// writes (CLI/tests); GEMM entry points read it once on the calling
/// thread and pass values down, so pool workers never touch it.
Mutex g_config_mutex;
std::optional<KernelConfig> g_config TCE_GUARDED_BY(
    g_config_mutex);  // NOLINT(cert-err58-cpp)

// ---------------------------------------------------------------------
// Microkernel: C (MR×NR, row stride ldc) += Ap · Bp over kc steps,
// where Ap is an MR-wide packed column-major micro-panel (Ap[p*MR + i])
// and Bp an NR-wide packed row-major micro-panel (Bp[p*NR + j]).

using MicroKernelFn = void (*)(std::size_t kc, const double* ap,
                               const double* bp, double* c,
                               std::size_t ldc);

void micro_generic(std::size_t kc, const double* ap, const double* bp,
                   double* c, std::size_t ldc) {
  double acc[kMicroM][kMicroN] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* a = ap + p * kMicroM;
    const double* b = bp + p * kMicroN;
    for (std::size_t i = 0; i < kMicroM; ++i) {
      for (std::size_t j = 0; j < kMicroN; ++j) {
        acc[i][j] += a[i] * b[j];
      }
    }
  }
  for (std::size_t i = 0; i < kMicroM; ++i) {
    for (std::size_t j = 0; j < kMicroN; ++j) {
      c[i * ldc + j] += acc[i][j];
    }
  }
}

#if TCE_KERNEL_X86_DISPATCH
/// AVX2+FMA variant: 12 ymm accumulators (two 4-double halves per C
/// column), one broadcast of B and two loads of A per k step.  Compiled
/// with a target attribute so the TU itself needs no -mavx2; the
/// dispatcher only selects it when the CPU reports both features.
__attribute__((target("avx2,fma"))) void micro_avx2(std::size_t kc,
                                                    const double* ap,
                                                    const double* bp,
                                                    double* c,
                                                    std::size_t ldc) {
  // Explicit accumulators so the compiler keeps all 12 in ymm registers
  // (an array sometimes spills at -O2): cLjH = C columns 0..5, rows
  // 0..3 (lo) / 4..7 (hi).
  __m256d c0l = _mm256_setzero_pd(), c0h = _mm256_setzero_pd();
  __m256d c1l = _mm256_setzero_pd(), c1h = _mm256_setzero_pd();
  __m256d c2l = _mm256_setzero_pd(), c2h = _mm256_setzero_pd();
  __m256d c3l = _mm256_setzero_pd(), c3h = _mm256_setzero_pd();
  __m256d c4l = _mm256_setzero_pd(), c4h = _mm256_setzero_pd();
  __m256d c5l = _mm256_setzero_pd(), c5h = _mm256_setzero_pd();

  const double* a = ap;
  const double* b = bp;
// A lambda would not inherit the target attribute (GCC rejects the
// intrinsics inside it), so the k-step is a macro.
#define TCE_MICRO_STEP()                        \
  do {                                          \
    const __m256d a0 = _mm256_loadu_pd(a);      \
    const __m256d a1 = _mm256_loadu_pd(a + 4);  \
    __m256d bj = _mm256_broadcast_sd(b + 0);    \
    c0l = _mm256_fmadd_pd(a0, bj, c0l);         \
    c0h = _mm256_fmadd_pd(a1, bj, c0h);         \
    bj = _mm256_broadcast_sd(b + 1);            \
    c1l = _mm256_fmadd_pd(a0, bj, c1l);         \
    c1h = _mm256_fmadd_pd(a1, bj, c1h);         \
    bj = _mm256_broadcast_sd(b + 2);            \
    c2l = _mm256_fmadd_pd(a0, bj, c2l);         \
    c2h = _mm256_fmadd_pd(a1, bj, c2h);         \
    bj = _mm256_broadcast_sd(b + 3);            \
    c3l = _mm256_fmadd_pd(a0, bj, c3l);         \
    c3h = _mm256_fmadd_pd(a1, bj, c3h);         \
    bj = _mm256_broadcast_sd(b + 4);            \
    c4l = _mm256_fmadd_pd(a0, bj, c4l);         \
    c4h = _mm256_fmadd_pd(a1, bj, c4h);         \
    bj = _mm256_broadcast_sd(b + 5);            \
    c5l = _mm256_fmadd_pd(a0, bj, c5l);         \
    c5h = _mm256_fmadd_pd(a1, bj, c5h);         \
    a += kMicroM;                               \
    b += kMicroN;                               \
  } while (false)

  std::size_t p = 0;
  for (; p + 4 <= kc; p += 4) {
    TCE_MICRO_STEP();
    TCE_MICRO_STEP();
    TCE_MICRO_STEP();
    TCE_MICRO_STEP();
  }
  for (; p < kc; ++p) TCE_MICRO_STEP();
#undef TCE_MICRO_STEP

  alignas(32) double t[kMicroM];
  const __m256d* lo[kMicroN] = {&c0l, &c1l, &c2l, &c3l, &c4l, &c5l};
  const __m256d* hi[kMicroN] = {&c0h, &c1h, &c2h, &c3h, &c4h, &c5h};
  for (std::size_t j = 0; j < kMicroN; ++j) {
    _mm256_store_pd(t, *lo[j]);
    _mm256_store_pd(t + 4, *hi[j]);
    for (std::size_t i = 0; i < kMicroM; ++i) {
      c[i * ldc + j] += t[i];
    }
  }
}
#endif  // TCE_KERNEL_X86_DISPATCH

struct MicroDispatch {
  MicroKernelFn fn = micro_generic;
  const char* isa = "generic";
};

MicroDispatch pick_micro() {
#if TCE_KERNEL_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {micro_avx2, "avx2"};
  }
#endif
  return {micro_generic, "generic"};
}

const MicroDispatch& micro_dispatch() {
  static const MicroDispatch d = pick_micro();
  return d;
}

/// Packs A[ic.., pc..] (row-major lda = k) into MR-row micro-panels,
/// zero-padding rows past mc_eff.  Layout: panel ir, then k step, then
/// row within the panel.
void pack_a_panel(const double* a, std::size_t lda, std::size_t ic,
                  std::size_t pc, std::size_t mc_eff, std::size_t kc_eff,
                  double* out) {
  for (std::size_t ir = 0; ir < mc_eff; ir += kMicroM) {
    const std::size_t rows = std::min(kMicroM, mc_eff - ir);
    double* panel = out + ir * kc_eff;
    for (std::size_t p = 0; p < kc_eff; ++p) {
      const double* col = a + (ic + ir) * lda + pc + p;
      double* dst = panel + p * kMicroM;
      for (std::size_t i = 0; i < rows; ++i) dst[i] = col[i * lda];
      for (std::size_t i = rows; i < kMicroM; ++i) dst[i] = 0.0;
    }
  }
}

/// Packs B[pc.., jc..] (row-major ldb = n) into NR-column micro-panels,
/// zero-padding columns past nc_eff.
void pack_b_panel(const double* b, std::size_t ldb, std::size_t pc,
                  std::size_t jc, std::size_t kc_eff, std::size_t nc_eff,
                  double* out) {
  for (std::size_t jr = 0; jr < nc_eff; jr += kMicroN) {
    const std::size_t cols = std::min(kMicroN, nc_eff - jr);
    double* panel = out + jr * kc_eff;
    for (std::size_t p = 0; p < kc_eff; ++p) {
      const double* row = b + (pc + p) * ldb + jc + jr;
      double* dst = panel + p * kMicroN;
      for (std::size_t j = 0; j < cols; ++j) dst[j] = row[j];
      for (std::size_t j = cols; j < kMicroN; ++j) dst[j] = 0.0;
    }
  }
}

/// The macro-kernel shared by both tiled entry points: C (mc_eff×nc_eff
/// at \p c, row stride \p ldc) += one packed MC×KC panel of A (\p ap)
/// times one packed KC×NC panel of B (\p bp), MR×NR micro-tile by
/// micro-tile.
void macro_kernel(const double* ap, const double* bp, std::size_t mc_eff,
                  std::size_t nc_eff, std::size_t kc_eff, double* c,
                  std::size_t ldc) {
  const MicroKernelFn micro = micro_dispatch().fn;
  for (std::size_t jr = 0; jr < nc_eff; jr += kMicroN) {
    const std::size_t nr = std::min(kMicroN, nc_eff - jr);
    const double* bp_r = bp + jr * kc_eff;
    for (std::size_t ir = 0; ir < mc_eff; ir += kMicroM) {
      const std::size_t mr = std::min(kMicroM, mc_eff - ir);
      const double* ap_r = ap + ir * kc_eff;
      double* cp = c + ir * ldc + jr;
      if (mr == kMicroM && nr == kMicroN) {
        micro(kc_eff, ap_r, bp_r, cp, ldc);
      } else {
        // Edge tile: run the full microkernel into a bounce buffer,
        // accumulate only the valid mr×nr corner.
        double tmp[kMicroM * kMicroN] = {};
        micro(kc_eff, ap_r, bp_r, tmp, kMicroN);
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nr; ++j) {
            cp[i * ldc + j] += tmp[i * kMicroN + j];
          }
        }
      }
    }
  }
}

/// Runs fn(bi) for the \p m_blocks MC row-blocks of one panel pair on
/// the shared pool.  Disjoint C rows per block and a sequential pc loop
/// in the caller keep the accumulation order fixed, so the result is
/// bitwise identical at every thread count.  One thread or one block
/// runs inline, as the pool itself would, without building a
/// std::function.
template <typename Fn>
void for_each_mc_block(std::size_t m_blocks, unsigned threads,
                       const Fn& fn) {
  if (threads <= 1 || m_blocks == 1) {
    for (std::size_t bi = 0; bi < m_blocks; ++bi) fn(bi);
    return;
  }
  ThreadPool::shared().parallel_for(m_blocks, threads, fn);
}

/// One tiled-GEMM call's metrics.  The clock is read only while the
/// registry records, and not at all when \p tiled is false (the
/// reference kernel is not instrumented).
class TiledCallMetrics {
 public:
  explicit TiledCallMetrics(bool tiled = true) {
    if (tiled && obs::metrics_enabled()) sw_.emplace();
  }

  /// Records kernel.gemm_s, kernel.tiled_calls and \p pack_bytes.
  void record(std::uint64_t pack_bytes = 0) const {
    if (!sw_.has_value()) return;
    obs::observe("kernel.gemm_s", sw_->elapsed_s());
    if (pack_bytes > 0) obs::count("kernel.pack_bytes", pack_bytes);
    obs::count("kernel.tiled_calls");
  }

 private:
  std::optional<Stopwatch> sw_;
};

}  // namespace

const char* kernel_kind_name(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::kAuto:
      return "auto";
    case KernelKind::kReference:
      return "ref";
    case KernelKind::kTiled:
      return "tiled";
  }
  return "auto";
}

KernelKind parse_kernel_kind(const std::string& name) {
  if (name == "auto") return KernelKind::kAuto;
  if (name == "ref" || name == "reference") return KernelKind::kReference;
  if (name == "tiled") return KernelKind::kTiled;
  throw KernelUsageError("unknown kernel '" + name +
                         "' (expected auto, ref, or tiled)");
}

const KernelConfig& kernel_config() {
  MutexLock lock(g_config_mutex);
  if (!g_config.has_value()) g_config = config_from_env();
  return *g_config;
}

void set_kernel_config(const KernelConfig& cfg) {
  MutexLock lock(g_config_mutex);
  g_config = cfg;
}

void reset_kernel_config_from_env() {
  MutexLock lock(g_config_mutex);
  g_config.reset();
}

KernelKind select_kernel(KernelKind kind, std::uint64_t mnk) noexcept {
  if (kind != KernelKind::kAuto) return kind;
  return mnk >= kAutoCutoffElems ? KernelKind::kTiled
                                 : KernelKind::kReference;
}

const char* gemm_microkernel_isa() noexcept { return micro_dispatch().isa; }

void gemm_ref(std::span<const double> a, std::span<const double> b,
              std::span<double> c, std::size_t m, std::size_t k,
              std::size_t n, const TileConfig& tiles) {
  TCE_EXPECTS(a.size() == m * k);
  TCE_EXPECTS(b.size() == k * n);
  TCE_EXPECTS(c.size() == m * n);

  for (std::size_t i0 = 0; i0 < m; i0 += tiles.mc) {
    const std::size_t i1 = std::min(i0 + tiles.mc, m);
    for (std::size_t k0 = 0; k0 < k; k0 += tiles.kc) {
      const std::size_t k1 = std::min(k0 + tiles.kc, k);
      for (std::size_t j0 = 0; j0 < n; j0 += tiles.nc) {
        const std::size_t j1 = std::min(j0 + tiles.nc, n);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const double av = a[i * k + kk];
            const double* brow = &b[kk * n];
            double* crow = &c[i * n];
            for (std::size_t j = j0; j < j1; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

void gemm_tiled(std::span<const double> a, std::span<const double> b,
                std::span<double> c, std::size_t m, std::size_t k,
                std::size_t n, const TileConfig& tiles, unsigned threads) {
  TCE_EXPECTS(a.size() == m * k);
  TCE_EXPECTS(b.size() == k * n);
  TCE_EXPECTS(c.size() == m * n);
  if (m == 0 || n == 0 || k == 0) return;  // C += 0: nothing to do

  const TiledCallMetrics metrics;
  const std::size_t mc = round_up(tiles.mc, kMicroM);
  const std::size_t kc = tiles.kc;
  const std::size_t nc = round_up(tiles.nc, kMicroN);

  const std::size_t m_blocks = (m + mc - 1) / mc;
  const unsigned use_threads = std::min<std::size_t>(
      ThreadPool::resolve_threads(threads), m_blocks);

  std::uint64_t pack_bytes = 0;
  std::vector<double> bpack;
  for (std::size_t jc = 0; jc < n; jc += nc) {
    const std::size_t nc_eff = std::min(nc, n - jc);
    const std::size_t nc_pad = round_up(nc_eff, kMicroN);
    for (std::size_t pc = 0; pc < k; pc += kc) {
      const std::size_t kc_eff = std::min(kc, k - pc);
      bpack.resize(nc_pad * kc_eff);
      pack_b_panel(b.data(), n, pc, jc, kc_eff, nc_eff, bpack.data());
      pack_bytes += nc_pad * kc_eff * sizeof(double);
      pack_bytes += round_up(m, kMicroM) * kc_eff * sizeof(double);

      for_each_mc_block(m_blocks, use_threads, [&](std::size_t bi) {
        const std::size_t ic = bi * mc;
        const std::size_t mc_eff = std::min(mc, m - ic);
        thread_local std::vector<double> apack;
        apack.resize(round_up(mc_eff, kMicroM) * kc_eff);
        pack_a_panel(a.data(), k, ic, pc, mc_eff, kc_eff, apack.data());
        macro_kernel(apack.data(), bpack.data(), mc_eff, nc_eff, kc_eff,
                     c.data() + ic * n + jc, n);
      });
    }
  }
  metrics.record(pack_bytes);
}

PackedGemm::PackedGemm(std::size_t m, std::size_t k, std::size_t n,
                       const KernelConfig& cfg)
    : m_(m),
      k_(k),
      n_(n),
      kind_(select_kernel(
          cfg.kind,
          checked_mul(checked_mul(static_cast<std::uint64_t>(m), k), n))),
      tiles_(cfg.tiles) {
  const std::size_t mc = round_up(tiles_.mc, kMicroM);
  threads_ = static_cast<unsigned>(std::min<std::size_t>(
      ThreadPool::resolve_threads(cfg.threads), (m + mc - 1) / mc));
}

std::size_t PackedGemm::a_size() const noexcept {
  return kind_ == KernelKind::kTiled ? round_up(m_, kMicroM) * k_ : m_ * k_;
}

std::size_t PackedGemm::b_size() const noexcept {
  return kind_ == KernelKind::kTiled ? k_ * round_up(n_, kMicroN) : k_ * n_;
}

void PackedGemm::pack_a(std::span<const double> a,
                        std::span<double> out) const {
  TCE_EXPECTS(a.size() == m_ * k_);
  TCE_EXPECTS(out.size() == a_size());
  if (kind_ != KernelKind::kTiled) {
    std::copy(a.begin(), a.end(), out.begin());
    return;
  }
  // KC block pc holds round_up(m, MR)·kc_eff elements: the MR-row
  // micro-panels of every MC block, which gemm_tiled packs one MC block
  // at a time.
  const std::size_t m_pad = round_up(m_, kMicroM);
  for (std::size_t pc = 0; pc < k_; pc += tiles_.kc) {
    const std::size_t kc_eff = std::min(tiles_.kc, k_ - pc);
    pack_a_panel(a.data(), k_, 0, pc, m_, kc_eff, out.data() + m_pad * pc);
  }
  if (obs::metrics_enabled()) {
    obs::count("kernel.pack_bytes", out.size() * sizeof(double));
  }
}

void PackedGemm::pack_b(std::span<const double> b,
                        std::span<double> out) const {
  TCE_EXPECTS(b.size() == k_ * n_);
  TCE_EXPECTS(out.size() == b_size());
  if (kind_ != KernelKind::kTiled) {
    std::copy(b.begin(), b.end(), out.begin());
    return;
  }
  // NC block jc holds nc_pad·k elements, its KC blocks in order.
  const std::size_t nc = round_up(tiles_.nc, kMicroN);
  for (std::size_t jc = 0; jc < n_; jc += nc) {
    const std::size_t nc_eff = std::min(nc, n_ - jc);
    const std::size_t nc_pad = round_up(nc_eff, kMicroN);
    for (std::size_t pc = 0; pc < k_; pc += tiles_.kc) {
      const std::size_t kc_eff = std::min(tiles_.kc, k_ - pc);
      pack_b_panel(b.data(), n_, pc, jc, kc_eff, nc_eff,
                   out.data() + jc * k_ + nc_pad * pc);
    }
  }
  if (obs::metrics_enabled()) {
    obs::count("kernel.pack_bytes", out.size() * sizeof(double));
  }
}

void PackedGemm::tiled_product(const double* ap, const double* bp,
                               double* out) const {
  const std::size_t mc = round_up(tiles_.mc, kMicroM);
  const std::size_t kc = tiles_.kc;
  const std::size_t nc = round_up(tiles_.nc, kMicroN);
  const std::size_t m_pad = round_up(m_, kMicroM);
  const std::size_t m_blocks = (m_ + mc - 1) / mc;
  for (std::size_t jc = 0; jc < n_; jc += nc) {
    const std::size_t nc_eff = std::min(nc, n_ - jc);
    const std::size_t nc_pad = round_up(nc_eff, kMicroN);
    for (std::size_t pc = 0; pc < k_; pc += kc) {
      const std::size_t kc_eff = std::min(kc, k_ - pc);
      const double* a_panel = ap + m_pad * pc;
      const double* b_panel = bp + jc * k_ + nc_pad * pc;
      for_each_mc_block(m_blocks, threads_, [&](std::size_t bi) {
        const std::size_t ic = bi * mc;
        macro_kernel(a_panel + ic * kc_eff, b_panel,
                     std::min(mc, m_ - ic), nc_eff, kc_eff,
                     out + ic * n_ + jc, n_);
      });
    }
  }
}

void PackedGemm::multiply_acc(std::span<const double> a_packed,
                              std::span<const double> b_packed,
                              std::span<double> c) {
  TCE_EXPECTS(a_packed.size() == a_size());
  TCE_EXPECTS(b_packed.size() == b_size());
  TCE_EXPECTS(c.size() == m_ * n_);
  if (m_ == 0 || n_ == 0 || k_ == 0) return;  // C += 0: nothing to do

  const bool tiled = kind_ == KernelKind::kTiled;
  const TiledCallMetrics metrics(tiled);
  if (tiled && k_ <= tiles_.kc) {
    // One KC panel: each micro-tile adds its whole sum to c once, the
    // same additions as a product into a zeroed block added to c.
    tiled_product(a_packed.data(), b_packed.data(), c.data());
  } else {
    // Across KC panels, or under the reference kernel, the kernel adds
    // partial sums one at a time, so the product needs its own block.
    scratch_.assign(c.size(), 0.0);
    if (tiled) {
      tiled_product(a_packed.data(), b_packed.data(), scratch_.data());
    } else {
      gemm_ref(a_packed, b_packed, scratch_, m_, k_, n_, tiles_);
    }
    for (std::size_t x = 0; x < c.size(); ++x) c[x] += scratch_[x];
  }
  metrics.record();
}

double gemm_model_efficiency(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k) noexcept {
  if (m == 0 || n == 0 || k == 0) return 1.0;
  const TileConfig tiles;  // model the production kernel at defaults
  const double md = static_cast<double>(m);
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  const double m_pad =
      static_cast<double>(round_up(m, kMicroM));
  const double n_pad =
      static_cast<double>(round_up(n, kMicroN));
  const double jc_blocks =
      std::ceil(nd / static_cast<double>(tiles.nc));
  const double pc_blocks =
      std::ceil(kd / static_cast<double>(tiles.kc));

  const double useful = 2.0 * md * nd * kd;
  // Partial MR/NR tiles burn full microkernel work on padding.
  const double padded = 2.0 * m_pad * n_pad * kd;
  // Memory traffic in moved elements: A repacked once per NC column
  // block, B packed once, C read+updated once per KC depth block.
  const double moves = m_pad * kd * jc_blocks + kd * n_pad +
                       2.0 * md * nd * pc_blocks;
  // One moved element costs ~4 flop-times; a call costs ~4096 flops of
  // setup (dispatch, buffer sizing, loop prologue).
  const double overhead = 4.0 * moves + 4096.0;
  return useful / (padded + overhead);
}

}  // namespace tce
