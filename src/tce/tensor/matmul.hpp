#pragma once
/// \file matmul.hpp
/// The fast path for local block contractions.
///
/// A true contraction C(I,J) += A(I,K)·B(K,J) maps to a matrix product
/// once the I dimensions are packed into rows and the K (resp. J)
/// dimensions into columns.  The TTGT lowering (tce/tensor/ttgt.hpp)
/// performs the permutation, and its ttgt_contract_acc composes it with
/// matmul_acc, the dispatching GEMM, to accumulate into a labeled result
/// tensor.

#include "tce/tensor/dense.hpp"

namespace tce {

/// C (m×n, row-major) += A (m×k, row-major) · B (k×n, row-major).
/// Dispatches to the tiled packing GEMM or the reference cache-blocked
/// loops per the process-wide kernel config (tce/tensor/kernel.hpp).
void matmul_acc(std::span<const double> a, std::span<const double> b,
                std::span<double> c, std::size_t m, std::size_t k,
                std::size_t n);

}  // namespace tce
