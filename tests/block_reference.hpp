#pragma once
// Element-by-element copies between a full tensor and one distributed
// block: the reference the executor's packed block walks are checked
// against (test_cannon's block schedules, test_kernel's offset walks,
// test_tensor's block geometry).  The library packs blocks straight
// from the full tensors and never copies them out this way.

#include <cstdint>
#include <span>
#include <vector>

#include "tce/common/error.hpp"
#include "tce/tensor/block.hpp"
#include "tce/tensor/dense.hpp"

namespace tce {

/// Runs fn(block_idx, full_idx) over all positions of \p r.
template <typename Fn>
void for_each_block_position(const DenseTensor& full, const BlockRange& r,
                             Fn&& fn) {
  TCE_EXPECTS(full.rank() == r.rank());
  std::vector<std::uint64_t> extents;
  extents.reserve(r.rank());
  for (std::size_t d = 0; d < r.rank(); ++d) {
    TCE_EXPECTS(r.hi[d] <= full.extents()[d]);
    extents.push_back(r.extent(d));
  }
  MultiIndex mi(extents);
  std::vector<std::uint64_t> full_idx(r.rank());
  std::uint64_t flat = 0;
  do {
    const auto idx = mi.values();
    for (std::size_t d = 0; d < r.rank(); ++d) {
      full_idx[d] = r.lo[d] + idx[d];
    }
    fn(flat++, full_idx);
  } while (mi.advance());
}

/// Copies the slice \p r out of \p full into a fresh block tensor with
/// the same dimension labels.
inline DenseTensor extract_block(const DenseTensor& full,
                                 const BlockRange& r) {
  DenseTensor block(full.dims(), r.extents());
  std::span<double> out = block.data();
  for_each_block_position(
      full, r, [&](std::uint64_t flat, const std::vector<std::uint64_t>& idx) {
        out[flat] = full.at(idx);
      });
  return block;
}

/// Writes \p block (shaped like \p r) into \p full at \p r.
inline void place_block(const DenseTensor& block, const BlockRange& r,
                        DenseTensor& full) {
  std::span<const double> in = block.data();
  TCE_EXPECTS(block.size() == r.size());
  for_each_block_position(
      full, r, [&](std::uint64_t flat, const std::vector<std::uint64_t>& idx) {
        full.at(idx) = in[flat];
      });
}

/// Accumulates (+=) \p block into \p full at \p r, as when assembling
/// results replicated across a grid dimension.
inline void accumulate_block(const DenseTensor& block, const BlockRange& r,
                             DenseTensor& full) {
  std::span<const double> in = block.data();
  TCE_EXPECTS(block.size() == r.size());
  for_each_block_position(
      full, r, [&](std::uint64_t flat, const std::vector<std::uint64_t>& idx) {
        full.at(idx) += in[flat];
      });
}

}  // namespace tce
