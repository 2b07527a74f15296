#include "tce/core/accounting.hpp"

#include <algorithm>

#include "tce/common/assert.hpp"
#include "tce/common/checked.hpp"
#include "tce/fusion/fused.hpp"

namespace tce {

// ------------------------------------------------------ candidate space

std::vector<IndexSet> fusion_candidates(const ContractionTree& tree,
                                        const OptimizerConfig& cfg,
                                        NodeId id) {
  if (cfg.fixed_fusions.has_value()) {
    auto it = cfg.fixed_fusions->find(id);
    return {it == cfg.fixed_fusions->end() ? IndexSet() : it->second};
  }
  if (!cfg.enable_fusion) return {IndexSet()};
  std::vector<IndexSet> out;
  for_each_subset(fusable_indices(tree, id),
                  [&](IndexSet f) { out.push_back(f); });
  return out;
}

std::vector<IndexId> with_none(IndexSet set) {
  std::vector<IndexId> v;
  for (IndexId i : set) v.push_back(i);
  v.push_back(kNoIndex);
  return v;
}

IndexSet triplet_of(const CannonChoice& c) {
  IndexSet triplet;
  for (IndexId t : {c.i, c.j, c.k}) {
    if (t != kNoIndex) triplet.insert(t);
  }
  return triplet;
}

std::vector<ReplUnit> repl_units(const ContractionNode& n) {
  std::vector<ReplUnit> units;
  for (bool repl_right : {false, true}) {
    const IndexSet stat_side = repl_right ? n.left_indices : n.right_indices;
    for (IndexId s_r : with_none(stat_side)) {
      for (IndexId s_k : with_none(n.sum_indices)) {
        for (bool tr : {false, true}) {
          if (s_r == kNoIndex && s_k == kNoIndex && tr) continue;
          units.push_back({repl_right, s_r, s_k, tr});
        }
      }
    }
  }
  return units;
}

ReplStep repl_step(const ReplUnit& u, IndexId j_pick) {
  ReplStep st;
  st.repl_right = u.repl_right;
  st.stationary = Distribution(u.s_r, u.s_k);
  st.result = Distribution(u.s_r, j_pick);
  st.partial = Distribution(u.s_r, kNoIndex);
  if (u.tr) {
    st.stationary = st.stationary.transposed();
    st.result = st.result.transposed();
    st.partial = st.partial.transposed();
  }
  st.reduce_dim = st.stationary.dim_of(u.s_k);
  st.scatter = j_pick != kNoIndex;
  for (IndexId t : {u.s_r, u.s_k, j_pick}) {
    if (t != kNoIndex) st.triplet.insert(t);
  }
  return st;
}

Distribution compact_dist(const TensorRef& ref) {
  const IndexId d1 = !ref.dims.empty() ? ref.dims[0] : kNoIndex;
  const IndexId d2 = ref.dims.size() > 1 ? ref.dims[1] : kNoIndex;
  return Distribution(d1, d2);
}

Distribution reduce_dist(const Distribution& child, IndexSet summed) {
  const auto kept = [&](int d) {
    const IndexId i = child.at(d);
    return (i != kNoIndex && summed.contains(i)) ? kNoIndex : i;
  };
  return Distribution(kept(1), kept(2));
}

// ------------------------------------------------------------- pricing

Delivered leaf_operand(GeomCache& geom, const TensorRef& v,
                       const Distribution& d) {
  Delivered out;
  out.fp.mem = geom.bytes(v, d, IndexSet());
  out.fp.input_bytes = out.fp.mem;
  return out;
}

std::optional<Delivered> produced_operand(
    const MachineModel& model, GeomCache& geom, const OptimizerConfig& cfg,
    const TensorRef& v, const Footprint& made, const Distribution& from,
    IndexSet fusion, const Distribution& to, bool any_layout) {
  Delivered out;
  out.fp = made;
  out.fusion = fusion;
  if (any_layout || from == to) return out;
  if (!cfg.enable_redistribution || !fusion.empty()) return std::nullopt;
  const std::uint64_t source = geom.bytes(v, from, IndexSet());
  out.redist_s = model.redistribute_cost(source);
  out.fp.max_msg = std::max(out.fp.max_msg, source);
  out.fp.comm_words = saturating_add(out.fp.comm_words, source / 8);
  return out;
}

StepComm cannon_comm(const MachineModel& model, GeomCache& geom,
                     const CannonChoice& c, const TensorRef& left,
                     const TensorRef& right, const TensorRef& result,
                     IndexSet f_eff) {
  StepComm out;
  const GeomCache::Loops lp = geom.loops(f_eff);
  const std::uint64_t hops = geom.grid().edge - 1u;
  const auto rotate = [&](const TensorRef& v, const Distribution& d,
                          int dim) {
    const std::uint64_t block = geom.bytes(v, d, f_eff);
    out.max_msg = std::max(out.max_msg, block);
    out.words = saturating_add(
        out.words, saturating_mul(lp.trips, saturating_mul(hops, block / 8)));
    return lp.repeat * model.rotate_cost(block, dim);
  };
  if (c.rotates_left()) {
    out.left_s = rotate(left, c.left_dist(), c.left_rot_dim());
  }
  if (c.rotates_right()) {
    out.right_s = rotate(right, c.right_dist(), c.right_rot_dim());
  }
  if (c.rotates_result()) {
    out.result_s = rotate(result, c.result_dist(), c.result_rot_dim());
  }
  return out;
}

StepComm replicated_comm(const MachineModel& model, GeomCache& geom,
                         const ReplStep& step, const TensorRef& gathered,
                         const TensorRef& result, IndexSet f_eff) {
  StepComm out;
  const GeomCache::Loops ag = geom.loops(f_eff & gathered.index_set());
  const std::uint64_t slice = geom.fused_total(gathered, f_eff);
  (step.repl_right ? out.right_s : out.left_s) =
      ag.repeat * model.allgather_cost(slice);
  const std::uint64_t slice_words = slice / 8;
  out.words =
      saturating_mul(ag.trips, slice_words - slice_words / geom.grid().procs);

  const IndexSet f_red = f_eff & result.index_set();
  const GeomCache::Loops red = geom.loops(f_red);
  const std::uint64_t partial = geom.bytes(result, step.partial, f_red);
  if (step.reduce_dim != 0) {
    out.result_s =
        red.repeat * model.reduce_scatter_cost(partial, step.reduce_dim);
    const std::uint64_t partial_words = partial / 8;
    std::uint64_t rs_words = saturating_mul(
        red.trips, partial_words - partial_words / geom.grid().edge);
    if (!step.scatter) {
      out.result_s *= 2.0;
      rs_words = saturating_mul(rs_words, 2);
    }
    out.words = saturating_add(out.words, rs_words);
  }
  const std::uint64_t own_block = geom.bytes(result, step.result, f_eff);
  out.max_msg =
      checked_add(slice, partial > own_block ? partial - own_block : 0);
  return out;
}

StepComm reduce_comm(const MachineModel& model, GeomCache& geom,
                     const TensorRef& result, const Distribution& from,
                     const Distribution& rdist, IndexSet f_u) {
  StepComm out;
  if (rdist == from) return out;
  const std::uint64_t block = geom.bytes(result, rdist, f_u);
  const GeomCache::Loops lp = geom.loops(f_u);
  out.result_s = lp.repeat * model.redistribute_cost(block);
  out.max_msg = block;
  out.words = saturating_mul(lp.trips, block / 8);
  return out;
}

double duplication_s(const MachineModel& model, std::uint64_t node_flops,
                     int split_dims) {
  TCE_EXPECTS(split_dims >= 0 && split_dims <= 2);
  const ProcGrid& grid = model.grid();
  double dup = 1.0;
  for (int d = split_dims; d < 2; ++d) {
    dup *= static_cast<double>(grid.edge);
  }
  if (dup == 1.0) return 0.0;
  const double share =
      static_cast<double>(node_flops) / static_cast<double>(grid.procs);
  return model.compute_time(static_cast<std::uint64_t>((dup - 1.0) * share));
}

}  // namespace tce
