#pragma once
/// \file kernel.hpp
/// Local GEMM kernels and the process-wide kernel-selection layer.
///
/// Two kernels implement C (m×n) += A (m×k) · B (k×n):
///
///  * `gemm_ref`  — the historical cache-blocked i-k-j loop nest over
///    row-major dense buffers.  Its blocking constants are the same
///    TileConfig the tiled kernel uses.
///  * the tiled kernel, run by `PackedGemm` — a BLIS-style packing GEMM:
///    A is packed into MC×KC panels of MR-row micro-panels, B into KC×NC
///    panels of NR-column micro-panels, and an 8×6 register-blocked FMA
///    microkernel (AVX2+FMA when the CPU has it, a portable unrolled
///    fallback otherwise) walks the panels and adds each tile's valid
///    corner into C itself.  The MC loop runs on the shared thread
///    pool; every thread writes a disjoint row-block of C and the KC
///    accumulation order is fixed, so results are bitwise identical at
///    every thread count.
///
/// `PackedGemm` packs its operands into the layout of the kernel it
/// resolved (under the reference kernel, row-major), straight from a
/// block of a larger tensor, and multiplies them any number of times:
/// the Cannon executor keeps every rank's blocks packed across its
/// steps, and the one-shot TTGT contraction packs each batch once.
///
/// Which kernel runs is decided at *execution* time by the process-wide
/// KernelConfig (`TCE_KERNEL`, auto by default with a size cutoff).
/// Planning never consults it: plans are byte-identical under every
/// kernel setting — only execution timings and floating-point
/// rounding differ (docs/KERNELS.md).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tce/common/error.hpp"

namespace tce {

/// Thrown on a malformed TCE_KERNEL setting; the CLI maps
/// it to the usage exit code (1) like its own UsageError.
class KernelUsageError : public Error {
 public:
  explicit KernelUsageError(const std::string& what) : Error(what) {}
};

/// Kernel selection: kAuto picks per block by size cutoff.
enum class KernelKind { kAuto, kReference, kTiled };

/// Register microkernel footprint: an MR×NR tile of C held in
/// accumulators (8×6 doubles = 12 AVX2 registers, leaving 4 for A/B).
inline constexpr std::size_t kMicroM = 8;
inline constexpr std::size_t kMicroN = 6;

/// Cache-blocking parameters shared by both kernels.  Defaults target a
/// ~32 KB L1 / ~1 MB L2 / shared L3 machine: an MC×KC packed A panel is
/// MC·KC·8 = 256 KB (L2-resident), a KC×NC packed B panel 6 MB
/// (L3-resident), and each microkernel step streams KC·(MR+NR)·8 =
/// 28 KB through L1.
struct TileConfig {
  std::size_t mc = 128;
  std::size_t kc = 256;
  std::size_t nc = 3072;
};

/// Auto-dispatch cutoff: blocks with fewer than this many multiply
/// sites (m·n·k) stay on the reference kernel — pack/unpack overhead
/// dominates tiny blocks.  32³ elements ≈ 64 KB of operands.
inline constexpr std::uint64_t kAutoCutoffElems = 32768;

/// The process-wide kernel configuration (see kernel_config()).
struct KernelConfig {
  KernelKind kind = KernelKind::kAuto;
  TileConfig tiles;
  /// Worker threads for the tiled GEMM's MC loop; 0 = hardware
  /// concurrency.  The result is bitwise identical at every setting.
  unsigned threads = 0;
};

/// "auto" | "ref" | "tiled".
const char* kernel_kind_name(KernelKind kind) noexcept;

/// Parses a kernel name ("auto", "ref"/"reference", "tiled"); throws
/// KernelUsageError on anything else.
KernelKind parse_kernel_kind(const std::string& name);

/// The current process-wide configuration.  First use reads the kernel
/// name from TCE_KERNEL, throwing KernelUsageError on an unknown name;
/// tiles and threads keep their defaults unless set_kernel_config
/// replaces them.
const KernelConfig& kernel_config();

/// Replaces the process-wide configuration (ScopedKernelConfig, tests).
void set_kernel_config(const KernelConfig& cfg);

/// Discards any cached/overridden configuration and re-reads the
/// environment on next use (tests that set TCE_KERNEL).
void reset_kernel_config_from_env();

/// RAII kernel-config override; restores the previous config on exit.
class ScopedKernelConfig {
 public:
  explicit ScopedKernelConfig(const KernelConfig& cfg)
      : saved_(kernel_config()) {
    set_kernel_config(cfg);
  }
  explicit ScopedKernelConfig(KernelKind kind) : saved_(kernel_config()) {
    KernelConfig cfg = saved_;
    cfg.kind = kind;
    set_kernel_config(cfg);
  }
  ~ScopedKernelConfig() { set_kernel_config(saved_); }
  ScopedKernelConfig(const ScopedKernelConfig&) = delete;
  ScopedKernelConfig& operator=(const ScopedKernelConfig&) = delete;

 private:
  KernelConfig saved_;
};

/// Resolves kAuto for a block with \p mnk = m·n·k multiply sites; never
/// returns kAuto.
KernelKind select_kernel(KernelKind kind, std::uint64_t mnk) noexcept;

/// Reference kernel: cache-blocked i-k-j loops with TileConfig blocks.
void gemm_ref(std::span<const double> a, std::span<const double> b,
              std::span<double> c, std::size_t m, std::size_t k,
              std::size_t n, const TileConfig& tiles);

/// An m×k · k×n GEMM whose operands are packed once, into the layout
/// of the kernel that runs them, and then multiplied any number of
/// times without further packing.  The kernel, tiles and threads are
/// resolved once, at construction.  Under the tiled kernel a packed
/// operand is its MR/NR micro-panels concatenated over its KC (and, for
/// B, NC) blocks; under the reference kernel it is row-major.
class PackedGemm {
 public:
  /// Resolves \p cfg (kAuto by size) for this shape.
  PackedGemm(std::size_t m, std::size_t k, std::size_t n,
             const KernelConfig& cfg = kernel_config());

  /// Elements of a packed A (resp. B) buffer.
  std::size_t a_size() const noexcept;
  std::size_t b_size() const noexcept;

  /// Packs A (m×k) into \p out, which holds a_size() elements, reading
  /// element (r, c) from src[rows[r] + cols[c]]: a block of a larger
  /// tensor packs in place, and a row-major matrix is the identity walk
  /// (rows[r] = r·k, cols[c] = c).  pack_b does the same for B (k×n)
  /// into b_size() elements.  Each counts the bytes it writes as
  /// kernel.pack_bytes.
  void pack_a(std::span<const double> src,
              std::span<const std::uint64_t> rows,
              std::span<const std::uint64_t> cols,
              std::span<double> out) const;
  void pack_b(std::span<const double> src,
              std::span<const std::uint64_t> rows,
              std::span<const std::uint64_t> cols,
              std::span<double> out) const;

  /// c (m×n, row-major) += A·B from packed operands, added as one fresh
  /// product: bit for bit what the kernel computes into a zeroed block,
  /// then added to c.  When the tiled kernel's K fits one KC panel that
  /// is the same additions as multiplying straight into c, which it
  /// does; otherwise the product goes through a zeroed scratch block.
  void multiply_acc(std::span<const double> a_packed,
                    std::span<const double> b_packed, std::span<double> c);

 private:
  /// The tiled loop nest over packed panels: out += A·B.
  void tiled_product(const double* ap, const double* bp, double* out) const;

  std::size_t m_;
  std::size_t k_;
  std::size_t n_;
  KernelKind kind_;
  TileConfig tiles_;
  unsigned threads_ = 1;
  std::vector<double> scratch_;
};

/// The SIMD variant the microkernel dispatch picked at startup
/// ("avx2" or "generic") — for bench/diagnostic output.
const char* gemm_microkernel_isa() noexcept;

/// Deterministic structural efficiency model of the tiled kernel at the
/// *default* TileConfig, in (0, 1]: useful flops divided by useful
/// flops plus modeled overhead (partial-tile padding, A/B pack and C
/// update traffic, per-call setup).  This is what the characterization
/// compute curve is generated from — a structural model, not a
/// wall-clock measurement, so plans stay reproducible across machines
/// (docs/KERNELS.md).
double gemm_model_efficiency(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k) noexcept;

}  // namespace tce
