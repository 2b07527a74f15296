#pragma once
/// \file block.hpp
/// Distributed block geometry: which slice of a full array lives on grid
/// position (z1, z2) under a distribution ⟨i,j⟩.
///
/// §3.1: a processor P_{z1,z2} owns
/// v(myrange(z1, N_{α[1]}, √P), ..., myrange(z2, N_{α[2]}, √P), ...)
/// with myrange(z, N, p) = [(z−1)·N/p, z·N/p) (0-based here).  Dimensions
/// absent from α are owned whole (replicated across that grid dimension).

#include "tce/dist/distribution.hpp"
#include "tce/tensor/dense.hpp"

namespace tce {

/// Half-open per-dimension ranges of one block, parallel to the tensor's
/// dims order.
struct BlockRange {
  std::vector<std::uint64_t> lo;
  std::vector<std::uint64_t> hi;

  std::size_t rank() const { return lo.size(); }
  std::uint64_t extent(std::size_t d) const { return hi[d] - lo[d]; }
  std::vector<std::uint64_t> extents() const {
    std::vector<std::uint64_t> out;
    out.reserve(lo.size());
    for (std::size_t d = 0; d < lo.size(); ++d) out.push_back(extent(d));
    return out;
  }
  std::uint64_t size() const {
    std::uint64_t s = 1;
    for (std::size_t d = 0; d < lo.size(); ++d) {
      s = checked_mul(s, extent(d));
    }
    return s;
  }
};

/// The block of \p v owned by grid position (z1, z2) under \p alpha.
/// Distributed extents must divide the grid edge evenly (the paper's
/// setting); throws otherwise.
BlockRange block_range(const TensorRef& v, const Distribution& alpha,
                       const IndexSpace& space, const ProcGrid& grid,
                       std::uint32_t z1, std::uint32_t z2);

}  // namespace tce
