#include "tce/tensor/matmul.hpp"

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/tensor/kernel.hpp"

namespace tce {

void matmul_acc(std::span<const double> a, std::span<const double> b,
                std::span<double> c, std::size_t m, std::size_t k,
                std::size_t n) {
  TCE_EXPECTS(a.size() == m * k);
  TCE_EXPECTS(b.size() == k * n);
  TCE_EXPECTS(c.size() == m * n);

  const KernelConfig& cfg = kernel_config();
  const std::uint64_t mnk =
      checked_mul(checked_mul(static_cast<std::uint64_t>(m), k), n);
  if (select_kernel(cfg.kind, mnk) == KernelKind::kTiled) {
    gemm_tiled(a, b, c, m, k, n, cfg.tiles, cfg.threads);
  } else {
    gemm_ref(a, b, c, m, k, n, cfg.tiles);
  }
}

}  // namespace tce
