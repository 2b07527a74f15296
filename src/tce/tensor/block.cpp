#include "tce/tensor/block.hpp"

#include "tce/common/error.hpp"

namespace tce {

BlockRange block_range(const TensorRef& v, const Distribution& alpha,
                       const IndexSpace& space, const ProcGrid& grid,
                       std::uint32_t z1, std::uint32_t z2) {
  TCE_EXPECTS(z1 < grid.edge && z2 < grid.edge);
  TCE_EXPECTS(distribution_valid_for(alpha, v));

  BlockRange r;
  r.lo.reserve(v.dims.size());
  r.hi.reserve(v.dims.size());
  for (IndexId d : v.dims) {
    const std::uint64_t n = space.extent(d);
    const int dim = alpha.dim_of(d);
    if (dim == 0) {
      r.lo.push_back(0);
      r.hi.push_back(n);
    } else {
      if (n % grid.edge != 0) {
        throw Error("block_range: extent " + std::to_string(n) +
                    " of index '" + space.name(d) +
                    "' does not divide the grid edge " +
                    std::to_string(grid.edge));
      }
      const std::uint64_t chunk = n / grid.edge;
      const std::uint64_t z = (dim == 1) ? z1 : z2;
      r.lo.push_back(z * chunk);
      r.hi.push_back((z + 1) * chunk);
    }
  }
  return r;
}

namespace {

/// Runs fn(block_idx, full_idx_offsets) over all positions of \p r.
template <typename Fn>
void for_each_position(const DenseTensor& full, const BlockRange& r,
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

}  // namespace

DenseTensor extract_block(const DenseTensor& full, const BlockRange& r) {
  DenseTensor block(full.dims(), r.extents());
  std::span<double> out = block.data();
  for_each_position(full, r,
                    [&](std::uint64_t flat,
                        const std::vector<std::uint64_t>& idx) {
                      out[flat] = full.at(idx);
                    });
  return block;
}

void place_block(const DenseTensor& block, const BlockRange& r,
                 DenseTensor& full) {
  std::span<const double> in = block.data();
  TCE_EXPECTS(block.size() == r.size());
  for_each_position(full, r,
                    [&](std::uint64_t flat,
                        const std::vector<std::uint64_t>& idx) {
                      full.at(idx) = in[flat];
                    });
}

void accumulate_block(const DenseTensor& block, const BlockRange& r,
                      DenseTensor& full) {
  std::span<const double> in = block.data();
  TCE_EXPECTS(block.size() == r.size());
  for_each_position(full, r,
                    [&](std::uint64_t flat,
                        const std::vector<std::uint64_t>& idx) {
                      full.at(idx) += in[flat];
                    });
}

}  // namespace tce
