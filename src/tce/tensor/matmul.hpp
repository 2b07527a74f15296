#pragma once
/// \file matmul.hpp
/// The fast path for local block contractions.
///
/// A true contraction C(I,J) += A(I,K)·B(K,J) maps to a matrix product
/// once the I dimensions are packed into rows and the K (resp. J)
/// dimensions into columns.  The TTGT lowering (tce/tensor/ttgt.hpp)
/// performs the permutation; matmul_acc is the dispatching GEMM;
/// contract_blocks_acc composes them and accumulates into a labeled
/// result tensor.

#include "tce/tensor/dense.hpp"

namespace tce {

/// C (m×n, row-major) += A (m×k, row-major) · B (k×n, row-major).
/// Dispatches to the tiled packing GEMM or the reference cache-blocked
/// loops per the process-wide kernel config (tce/tensor/kernel.hpp).
void matmul_acc(std::span<const double> a, std::span<const double> b,
                std::span<double> c, std::size_t m, std::size_t k,
                std::size_t n);

/// c += contraction of blocks a and b over the labels in
/// \p sum_indices, via the TTGT lowering (tce/tensor/ttgt.hpp): pack →
/// batched GEMM → unpack.  The result tensor \p c must carry exactly
/// the non-summed labels of a and b; labels shared by all three become
/// batch dimensions, and a summed label present in only one operand is
/// pre-reduced before the product.
void contract_blocks_acc(const DenseTensor& a, const DenseTensor& b,
                         IndexSet sum_indices, DenseTensor& c);

}  // namespace tce
