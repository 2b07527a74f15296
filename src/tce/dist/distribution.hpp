#pragma once
/// \file distribution.hpp
/// Array distributions ⟨i,j⟩ and the per-processor size formulas of
/// §3.2 (DistRange, DistSize).  The search prices the communication
/// side — the paper's LoopRange/MsgFactor and RotateCost — in
/// tce/core/accounting.hpp.
///
/// A distribution α is a pair of positions, α[1] and α[2], one per
/// processor dimension; each position names the array index distributed
/// along that dimension, or is empty (the array is not split along that
/// processor dimension — its data is replicated across it).  The paper's
/// notation ⟨b,f⟩ means: dimension b of the array split across processor
/// rows, dimension f across processor columns.

#include <cstdint>
#include <optional>
#include <string>

#include "tce/dist/grid.hpp"
#include "tce/expr/tensor_ref.hpp"

namespace tce {

/// Sentinel for an undistributed position in a Distribution.
inline constexpr IndexId kNoIndex = 0xFF;

/// A two-position distribution ⟨α[1], α[2]⟩.
class Distribution {
 public:
  constexpr Distribution() = default;
  constexpr Distribution(IndexId d1, IndexId d2) : d1_(d1), d2_(d2) {
    // The same index cannot be split along both grid dimensions.
    if (d1 != kNoIndex && d1 == d2) {
      TCE_UNREACHABLE("distribution repeats an index");
    }
  }

  /// Position along processor dimension \p d (1 or 2).
  constexpr IndexId at(int d) const {
    TCE_EXPECTS(d == 1 || d == 2);
    return d == 1 ? d1_ : d2_;
  }

  /// True when index \p i occupies one of the two positions.
  constexpr bool contains(IndexId i) const {
    return i != kNoIndex && (d1_ == i || d2_ == i);
  }

  /// Grid dimension (1 or 2) holding index \p i; 0 when absent.
  constexpr int dim_of(IndexId i) const {
    if (i == kNoIndex) return 0;
    if (d1_ == i) return 1;
    if (d2_ == i) return 2;
    return 0;
  }

  /// The distributed indices as a set.
  IndexSet index_set() const {
    IndexSet s;
    if (d1_ != kNoIndex) s.insert(d1_);
    if (d2_ != kNoIndex) s.insert(d2_);
    return s;
  }

  /// True when neither position is assigned.
  constexpr bool undistributed() const {
    return d1_ == kNoIndex && d2_ == kNoIndex;
  }

  /// The transposed distribution ⟨α[2], α[1]⟩.
  constexpr Distribution transposed() const {
    return Distribution(d2_, d1_);
  }

  /// Renders as "<b,f>"; empty positions render as "·".
  std::string str(const IndexSpace& space) const;

  friend constexpr bool operator==(Distribution a, Distribution b) {
    return a.d1_ == b.d1_ && a.d2_ == b.d2_;
  }
  friend constexpr bool operator!=(Distribution a, Distribution b) {
    return !(a == b);
  }
  friend constexpr bool operator<(Distribution a, Distribution b) {
    return a.d1_ != b.d1_ ? a.d1_ < b.d1_ : a.d2_ < b.d2_;
  }

 private:
  IndexId d1_ = kNoIndex;
  IndexId d2_ = kNoIndex;
};

/// DistRange(i, v, α, f) — §3.2(i): the per-processor extent of dimension
/// \p i of an array distributed as \p alpha with fusion \p fused:
///   1        if i is fused away,
///   N_i/√P   if i is distributed (rounded up when not divisible),
///   N_i      otherwise.
std::uint64_t dist_range(IndexId i, const Distribution& alpha,
                         IndexSet fused, const IndexSpace& space,
                         const ProcGrid& grid);

/// DistSize(v, α, f) — per-processor element count of array \p v.
std::uint64_t dist_size(const TensorRef& v, const Distribution& alpha,
                        IndexSet fused, const IndexSpace& space,
                        const ProcGrid& grid);

/// Per-processor bytes of a double-precision array.
inline std::uint64_t dist_bytes(const TensorRef& v,
                                const Distribution& alpha, IndexSet fused,
                                const IndexSpace& space,
                                const ProcGrid& grid) {
  return checked_mul(dist_size(v, alpha, fused, space, grid),
                     sizeof(double));
}

/// A distribution is valid for array \p v when every assigned position
/// names one of v's dimensions.
bool distribution_valid_for(const Distribution& alpha, const TensorRef& v);

/// All distributions valid for array \p v: every ordered pair of distinct
/// dimensions, every single-position distribution, and the fully
/// replicated ⟨·,·⟩.
std::vector<Distribution> enumerate_distributions(const TensorRef& v);

}  // namespace tce
