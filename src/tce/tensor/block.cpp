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

}  // namespace tce
