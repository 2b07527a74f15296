#pragma once
/// \file kernel_internal.hpp
/// The tiled GEMM's micro-kernels, listed for tests that run every one
/// this CPU supports, not only the one dispatch picked (not installed
/// API).

#include <cstddef>
#include <span>

namespace tce::kernel_internal {

/// C += Ap · Bp over \p kc steps for the valid \p mr × \p nr corner
/// (1 ≤ mr ≤ MR, 1 ≤ nr ≤ NR) of one MR×NR tile at \p c, row stride
/// \p ldc.  Ap is an MR-wide packed micro-panel (Ap[p*MR + i]) and Bp an
/// NR-wide one (Bp[p*NR + j]).  Each element of the corner gets exactly
/// one addition, of its sum accumulated from 0.0 in ascending p; cells
/// outside the corner are neither read nor written.
using MicroKernelFn = void (*)(std::size_t kc, const double* ap,
                               const double* bp, double* c, std::size_t ldc,
                               std::size_t mr, std::size_t nr);

struct MicroKernel {
  const char* isa;  ///< "avx2" or "generic", as gemm_microkernel_isa().
  MicroKernelFn fn;
};

/// Every micro-kernel this CPU can run, the dispatched one first.
std::span<const MicroKernel> runnable_micro_kernels();

}  // namespace tce::kernel_internal
