#include "tce/tensor/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "tce/common/annotations.hpp"
#include "tce/common/checked.hpp"
#include "tce/common/thread_pool.hpp"
#include "tce/common/timer.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/kernel_internal.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCE_KERNEL_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tce {

namespace {

std::size_t round_up(std::size_t v, std::size_t unit) {
  return (v + unit - 1) / unit * unit;
}

KernelConfig config_from_env() {
  KernelConfig cfg;
  if (const char* raw = std::getenv("TCE_KERNEL");
      raw != nullptr && *raw != '\0') {
    cfg.kind = parse_kernel_kind(raw);
  }
  return cfg;
}

/// The process-wide config.  Guarded by a mutex only for the rare
/// writes (CLI/tests); GEMM entry points read it once on the calling
/// thread and pass values down, so pool workers never touch it.
Mutex g_config_mutex;
std::optional<KernelConfig> g_config TCE_GUARDED_BY(
    g_config_mutex);  // NOLINT(cert-err58-cpp)

// ---------------------------------------------------------------------
// Micro-kernels (kernel_internal.hpp): the valid mr×nr corner of an MR×NR
// tile of C += Ap · Bp over kc steps.  Each adds its accumulators into C
// itself, so an edge tile costs no more memory traffic than a full one.

using kernel_internal::MicroKernel;
using kernel_internal::MicroKernelFn;

void micro_generic(std::size_t kc, const double* ap, const double* bp,
                   double* c, std::size_t ldc, std::size_t mr,
                   std::size_t nr) {
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
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < nr; ++j) {
      c[i * ldc + j] += acc[i][j];
    }
  }
}

#if TCE_KERNEL_X86_DISPATCH
// AVX2 helpers carry the same target attribute as the kernel so they
// inline into it.
#define TCE_AVX2_INLINE \
  __attribute__((target("avx2,fma"), always_inline)) inline

/// C row \p c += \p lo (columns 0..3) and \p hi (columns 4..5).
TCE_AVX2_INLINE void add_row(double* c, __m256d lo, __m128d hi) {
  _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), lo));
  _mm_storeu_pd(c + 4, _mm_add_pd(_mm_loadu_pd(c + 4), hi));
}

/// add_row for the columns whose mask lanes are set; masked lanes are
/// neither read nor written.
TCE_AVX2_INLINE void add_row_masked(double* c, __m256d lo, __m128d hi,
                                    __m256i mlo, __m128i mhi) {
  _mm256_maskstore_pd(c, mlo,
                      _mm256_add_pd(_mm256_maskload_pd(c, mlo), lo));
  _mm_maskstore_pd(c + 4, mhi,
                   _mm_add_pd(_mm_maskload_pd(c + 4, mhi), hi));
}

/// Adds rows [0, rows) (1 ≤ rows ≤ 4) of a four-row band of the tile
/// into C at \p c.  The band arrives as its six columns (x0..x5, one row
/// per lane) and is transposed in registers, so each row takes one ymm
/// and one xmm load-add-store, masked to \p nr columns on an edge tile.
TCE_AVX2_INLINE void add_band(double* c, std::size_t ldc, std::size_t rows,
                              std::size_t nr, __m256d x0, __m256d x1,
                              __m256d x2, __m256d x3, __m256d x4,
                              __m256d x5) {
  // 4×4 transpose of columns 0..3: unpack pairs rows (0, 2) and (1, 3)
  // of two columns, permute2f128 joins the halves.
  const __m256d t0 = _mm256_unpacklo_pd(x0, x1);
  const __m256d t1 = _mm256_unpackhi_pd(x0, x1);
  const __m256d t2 = _mm256_unpacklo_pd(x2, x3);
  const __m256d t3 = _mm256_unpackhi_pd(x2, x3);
  const __m256d r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  const __m256d r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  const __m256d r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  const __m256d r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
  const __m256d u0 = _mm256_unpacklo_pd(x4, x5);  // rows 0 and 2 of 4..5
  const __m256d u1 = _mm256_unpackhi_pd(x4, x5);  // rows 1 and 3 of 4..5
  const __m128d s0 = _mm256_castpd256_pd128(u0);
  const __m128d s1 = _mm256_castpd256_pd128(u1);
  const __m128d s2 = _mm256_extractf128_pd(u0, 1);
  const __m128d s3 = _mm256_extractf128_pd(u1, 1);
  if (rows == 4 && nr == kMicroN) {
    add_row(c, r0, s0);
    add_row(c + ldc, r1, s1);
    add_row(c + 2 * ldc, r2, s2);
    add_row(c + 3 * ldc, r3, s3);
    return;
  }
  // Lane l of a mask is set when column l (resp. 4 + l) is valid.
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const auto valid = static_cast<long long>(nr);
  const __m256i mlo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(valid), lane);
  const __m128i mhi = _mm256_castsi256_si128(
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(valid - 4), lane));
  add_row_masked(c, r0, s0, mlo, mhi);
  if (rows > 1) add_row_masked(c + ldc, r1, s1, mlo, mhi);
  if (rows > 2) add_row_masked(c + 2 * ldc, r2, s2, mlo, mhi);
  if (rows > 3) add_row_masked(c + 3 * ldc, r3, s3, mlo, mhi);
}

/// AVX2+FMA variant: 12 ymm accumulators (two 4-double halves per C
/// column), one broadcast of B and two loads of A per k step.  Compiled
/// with a target attribute so the TU itself needs no -mavx2; the
/// dispatcher only selects it when the CPU reports both features.
__attribute__((target("avx2,fma"))) void micro_avx2(
    std::size_t kc, const double* ap, const double* bp, double* c,
    std::size_t ldc, std::size_t mr, std::size_t nr) {
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

  add_band(c, ldc, std::min<std::size_t>(mr, 4), nr, c0l, c1l, c2l, c3l,
           c4l, c5l);
  if (mr > 4) {
    add_band(c + 4 * ldc, ldc, mr - 4, nr, c0h, c1h, c2h, c3h, c4h, c5h);
  }
}
#undef TCE_AVX2_INLINE
#endif  // TCE_KERNEL_X86_DISPATCH

/// The runnable micro-kernels, the one dispatch uses first.
std::vector<MicroKernel> pick_micro_kernels() {
  std::vector<MicroKernel> out;
#if TCE_KERNEL_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    out.push_back({"avx2", micro_avx2});
  }
#endif
  out.push_back({"generic", micro_generic});
  return out;
}

const std::vector<MicroKernel>& micro_kernels() {
  static const std::vector<MicroKernel> kernels = pick_micro_kernels();
  return kernels;
}

const MicroKernel& micro_dispatch() { return micro_kernels().front(); }

/// Packs rows [0, mc_eff) × columns [0, kc_eff) of the matrix whose
/// element (r, c) is src[row_off[r] + col_off[c]] into MR-row
/// micro-panels, zero-padding rows past mc_eff.  Layout: panel ir, then
/// k step, then row within the panel.
void pack_a_panel(const double* src, const std::uint64_t* row_off,
                  const std::uint64_t* col_off, std::size_t mc_eff,
                  std::size_t kc_eff, double* out) {
  for (std::size_t ir = 0; ir < mc_eff; ir += kMicroM) {
    const std::size_t rows = std::min(kMicroM, mc_eff - ir);
    const double* row[kMicroM];
    for (std::size_t i = 0; i < rows; ++i) row[i] = src + row_off[ir + i];
    double* panel = out + ir * kc_eff;
    for (std::size_t p = 0; p < kc_eff; ++p) {
      const std::uint64_t col = col_off[p];
      double* dst = panel + p * kMicroM;
      if (rows == kMicroM) {
        for (std::size_t i = 0; i < kMicroM; ++i) dst[i] = row[i][col];
        continue;
      }
      for (std::size_t i = 0; i < rows; ++i) dst[i] = row[i][col];
      for (std::size_t i = rows; i < kMicroM; ++i) dst[i] = 0.0;
    }
  }
}

/// Packs rows [0, kc_eff) × columns [0, nc_eff) of the matrix whose
/// element (r, c) is src[row_off[r] + col_off[c]] into NR-column
/// micro-panels, zero-padding columns past nc_eff.
void pack_b_panel(const double* src, const std::uint64_t* row_off,
                  const std::uint64_t* col_off, std::size_t kc_eff,
                  std::size_t nc_eff, double* out) {
  for (std::size_t jr = 0; jr < nc_eff; jr += kMicroN) {
    const std::size_t cols = std::min(kMicroN, nc_eff - jr);
    std::uint64_t col[kMicroN];
    for (std::size_t j = 0; j < cols; ++j) col[j] = col_off[jr + j];
    double* panel = out + jr * kc_eff;
    for (std::size_t p = 0; p < kc_eff; ++p) {
      const double* row = src + row_off[p];
      double* dst = panel + p * kMicroN;
      if (cols == kMicroN) {
        for (std::size_t j = 0; j < kMicroN; ++j) dst[j] = row[col[j]];
        continue;
      }
      for (std::size_t j = 0; j < cols; ++j) dst[j] = row[col[j]];
      for (std::size_t j = cols; j < kMicroN; ++j) dst[j] = 0.0;
    }
  }
}

/// True when every element src[rows[r] + cols[c]] lies inside \p src.
bool reads_inside(std::span<const double> src,
                  std::span<const std::uint64_t> rows,
                  std::span<const std::uint64_t> cols) {
  if (rows.empty() || cols.empty()) return true;
  return checked_add(*std::max_element(rows.begin(), rows.end()),
                     *std::max_element(cols.begin(), cols.end())) <
         src.size();
}

/// The reference kernel's packed layout: the matrix whose element
/// (r, c) is src[rows[r] + cols[c]], copied row-major.
void gather_row_major(std::span<const double> src,
                      std::span<const std::uint64_t> rows,
                      std::span<const std::uint64_t> cols,
                      std::span<double> out) {
  double* dst = out.data();
  for (const std::uint64_t r : rows) {
    const double* row = src.data() + r;
    for (const std::uint64_t c : cols) *dst++ = row[c];
  }
}

/// The tiled kernel's macro-kernel: C (mc_eff×nc_eff at \p c, row
/// stride \p ldc) += one packed MC×KC panel of A (\p ap) times one
/// packed KC×NC panel of B (\p bp), MR×NR micro-tile by micro-tile; the
/// micro-kernel adds each tile's valid corner into C.
void macro_kernel(const double* ap, const double* bp, std::size_t mc_eff,
                  std::size_t nc_eff, std::size_t kc_eff, double* c,
                  std::size_t ldc) {
  const MicroKernelFn micro = micro_dispatch().fn;
  for (std::size_t jr = 0; jr < nc_eff; jr += kMicroN) {
    const std::size_t nr = std::min(kMicroN, nc_eff - jr);
    const double* bp_r = bp + jr * kc_eff;
    for (std::size_t ir = 0; ir < mc_eff; ir += kMicroM) {
      micro(kc_eff, ap + ir * kc_eff, bp_r, c + ir * ldc + jr, ldc,
            std::min(kMicroM, mc_eff - ir), nr);
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

std::span<const MicroKernel> kernel_internal::runnable_micro_kernels() {
  return micro_kernels();
}

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

void PackedGemm::pack_a(std::span<const double> src,
                        std::span<const std::uint64_t> rows,
                        std::span<const std::uint64_t> cols,
                        std::span<double> out) const {
  TCE_EXPECTS(rows.size() == m_ && cols.size() == k_);
  TCE_EXPECTS(out.size() == a_size());
  TCE_EXPECTS(reads_inside(src, rows, cols));
  if (kind_ != KernelKind::kTiled) {
    gather_row_major(src, rows, cols, out);
  } else {
    // KC block pc holds round_up(m, MR)·kc_eff elements: the MR-row
    // micro-panels of every MC block in order.
    const std::size_t m_pad = round_up(m_, kMicroM);
    for (std::size_t pc = 0; pc < k_; pc += tiles_.kc) {
      const std::size_t kc_eff = std::min(tiles_.kc, k_ - pc);
      pack_a_panel(src.data(), rows.data(), cols.data() + pc, m_, kc_eff,
                   out.data() + m_pad * pc);
    }
  }
  if (obs::metrics_enabled()) {
    obs::count("kernel.pack_bytes", out.size() * sizeof(double));
  }
}

void PackedGemm::pack_b(std::span<const double> src,
                        std::span<const std::uint64_t> rows,
                        std::span<const std::uint64_t> cols,
                        std::span<double> out) const {
  TCE_EXPECTS(rows.size() == k_ && cols.size() == n_);
  TCE_EXPECTS(out.size() == b_size());
  TCE_EXPECTS(reads_inside(src, rows, cols));
  if (kind_ != KernelKind::kTiled) {
    gather_row_major(src, rows, cols, out);
  } else {
    // NC block jc holds nc_pad·k elements, its KC blocks in order.
    const std::size_t nc = round_up(tiles_.nc, kMicroN);
    for (std::size_t jc = 0; jc < n_; jc += nc) {
      const std::size_t nc_eff = std::min(nc, n_ - jc);
      const std::size_t nc_pad = round_up(nc_eff, kMicroN);
      for (std::size_t pc = 0; pc < k_; pc += tiles_.kc) {
        const std::size_t kc_eff = std::min(tiles_.kc, k_ - pc);
        pack_b_panel(src.data(), rows.data() + pc, cols.data() + jc, kc_eff,
                     nc_eff, out.data() + jc * k_ + nc_pad * pc);
      }
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

  // Only the tiled kernel is instrumented, and the clock is read only
  // while the registry records.
  const bool tiled = kind_ == KernelKind::kTiled;
  std::optional<Stopwatch> sw;
  if (tiled && obs::metrics_enabled()) sw.emplace();
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
  if (sw.has_value()) {
    obs::observe("kernel.gemm_s", sw->elapsed_s());
    obs::count("kernel.tiled_calls");
  }
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
