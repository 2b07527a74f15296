#pragma once
/// \file ttgt.hpp
/// TTGT lowering of pairwise einsum contractions.
///
/// A contraction C[result] += Σ_sum A·B is reduced to a batched matrix
/// product by classifying every index into one of four groups:
///
///   batch — in A, B, and the result        (outer loop)
///   M     — in A and the result only       (GEMM rows)
///   N     — in B and the result only       (GEMM columns)
///   K     — summed, in both A and B        (GEMM depth)
///
/// A summed index present in only one operand is handled by
/// pre-reducing that operand (einsum_reduce) before the lowering; K may
/// be empty (pure outer product, GEMM with k = 1).
///
/// The lowering is shared by the one-shot ttgt_contract_acc and the
/// Cannon executor (which lowers once per run and keeps every rank's
/// blocks packed across all its steps):
///   * lower_ttgt — the classification's K order and each tensor's
///     PackedWalk: the offsets of a block's batch positions, rows and
///     columns in the full tensor holding it;
///   * PackedGemm (tce/tensor/kernel.hpp) packs an operand's kernel
///     layout through a walk's row and column offsets, straight from
///     the full tensor;
///   * scatter_packed_acc adds a contiguous [batch][rows][cols] result
///     back into the full tensor through its walk (docs/KERNELS.md).

#include <span>

#include "tce/common/checked.hpp"
#include "tce/expr/index.hpp"
#include "tce/tensor/dense.hpp"

namespace tce {

/// The index classification of one pairwise contraction.
struct TtgtGroups {
  std::vector<IndexId> batch;  ///< In both operands and the result.
  std::vector<IndexId> m;      ///< A ∩ result, not in B.
  std::vector<IndexId> n;      ///< B ∩ result, not in A.
  std::vector<IndexId> k;      ///< Summed, in both operands.
  /// Summed indices found in only one operand — that operand is
  /// pre-reduced over them before the GEMM.
  std::vector<IndexId> a_only_sum;
  std::vector<IndexId> b_only_sum;
  /// False when an operand carries a dimension outside result ∪ sum;
  /// the reference loop nest silently pins such dims to index 0, so
  /// callers must fall back to it to preserve semantics.
  bool covered = true;
};

/// Classifies \p result_dims / \p sum_indices against the operands.
/// Throws tce::Error on label/extent inconsistencies (same conditions
/// and messages as the reference einsum).
TtgtGroups classify_ttgt(const DenseTensor& a, const DenseTensor& b,
                         const std::vector<IndexId>& result_dims,
                         IndexSet sum_indices);

/// One tensor block walked in packed order, as offsets from the block's
/// origin in the full tensor that holds it: packed element (b, r, c) of
/// the [batch][rows][cols] order lives at batch[b] + rows[r] + cols[c].
/// Each group lists its positions first dimension slowest.
struct PackedWalk {
  std::vector<std::uint64_t> batch;
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> cols;
  /// The columns come in runs of this many consecutive offsets: the
  /// innermost column dimensions that are contiguous in the full tensor
  /// (1 when the innermost one is strided).
  std::uint64_t col_run = 1;

  /// Elements of the packed [batch][rows][cols] buffer.
  std::uint64_t size() const {
    return checked_mul(checked_mul(batch.size(), rows.size()), cols.size());
  }
};

/// A contraction lowered to a batched GEMM: A walks as [batch][m][k], B
/// as [batch][k][n] and the result as [batch][m][n], with K in A's
/// layout order so both operand walks agree.
struct TtgtLowering {
  PackedWalk a;
  PackedWalk b;
  PackedWalk c;

  std::uint64_t batch() const { return a.batch.size(); }
  std::uint64_t m() const { return a.rows.size(); }
  std::uint64_t k() const { return a.cols.size(); }
  std::uint64_t n() const { return b.cols.size(); }
};

/// Lowers c += Σ a·b, classified as \p g, for blocks of the given
/// per-dimension sizes (parallel to each tensor's dims; pass the
/// tensor's own extents for the whole tensor).  The groups must cover
/// every dimension of each tensor, so one-operand sums must have been
/// reduced away; throws tce::Error otherwise.
TtgtLowering lower_ttgt(const TtgtGroups& g, const DenseTensor& a,
                        std::span<const std::uint64_t> a_block,
                        const DenseTensor& b,
                        std::span<const std::uint64_t> b_block,
                        const DenseTensor& c,
                        std::span<const std::uint64_t> c_block);

/// Adds \p buf, in \p walk's packed order, into the block that starts
/// at \p dst[0] (a full tensor's storage from the block's origin on).
void scatter_packed_acc(std::span<const double> buf, const PackedWalk& walk,
                        std::span<double> dst);

/// c[c.dims()] += Σ_sum a·b via lower → pack → GEMM → scatter.  \p c
/// must carry exactly the non-summed labels (the classification is
/// derived from it); requires classify_ttgt(...).covered.  One
/// PackedGemm, built under the process-wide kernel config, packs and
/// multiplies each batch slice.
void ttgt_contract_acc(const DenseTensor& a, const DenseTensor& b,
                       IndexSet sum_indices, DenseTensor& c);

}  // namespace tce
