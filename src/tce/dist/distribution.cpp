#include "tce/dist/distribution.hpp"

namespace tce {

std::string Distribution::str(const IndexSpace& space) const {
  auto pos = [&](IndexId id) -> std::string {
    return id == kNoIndex ? "·" : space.name(id);
  };
  std::string out = "<";
  out += pos(d1_);
  out += ',';
  out += pos(d2_);
  out += '>';
  return out;
}

std::uint64_t dist_range(IndexId i, const Distribution& alpha,
                         IndexSet fused, const IndexSpace& space,
                         const ProcGrid& grid) {
  if (fused.contains(i)) return 1;
  if (alpha.contains(i)) return ceil_div(space.extent(i), grid.edge);
  return space.extent(i);
}

std::uint64_t dist_size(const TensorRef& v, const Distribution& alpha,
                        IndexSet fused, const IndexSpace& space,
                        const ProcGrid& grid) {
  TCE_EXPECTS_MSG(distribution_valid_for(alpha, v),
                  "distribution names an index absent from the array");
  std::uint64_t size = 1;
  for (IndexId i : v.dims) {
    size = checked_mul(size, dist_range(i, alpha, fused, space, grid));
  }
  return size;
}

std::vector<Distribution> enumerate_distributions(const TensorRef& v) {
  std::vector<IndexId> slots(v.dims);
  slots.push_back(kNoIndex);
  std::vector<Distribution> out;
  for (IndexId d1 : slots) {
    for (IndexId d2 : slots) {
      if (d1 == d2 && d1 != kNoIndex) continue;
      out.emplace_back(d1, d2);
    }
  }
  return out;
}

bool distribution_valid_for(const Distribution& alpha, const TensorRef& v) {
  const IndexSet dims = v.index_set();
  for (int d : {1, 2}) {
    const IndexId i = alpha.at(d);
    if (i != kNoIndex && !dims.contains(i)) return false;
  }
  return true;
}

}  // namespace tce
