#include "tce/cannon/executor.hpp"

#include <algorithm>
#include <initializer_list>
#include <type_traits>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/core/accounting.hpp"
#include "tce/core/simulate.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/ttgt.hpp"

namespace tce {

namespace {

/// Logs the failure (with the active local-kernel configuration, so a
/// flight-recorder dump answers "which GEMM path and tiles were live
/// when the executor died?") and throws.
[[noreturn]] void fail_executor(const std::string& what) {
  if (obs::log_enabled(obs::LogLevel::kError)) {
    const KernelConfig cfg = kernel_config();
    obs::log_event(obs::LogLevel::kError, "cannon", "executor.fail",
                   json::ObjectWriter()
                       .field("error", what)
                       .field("kernel", kernel_kind_name(cfg.kind))
                       .field("kernel_isa", gemm_microkernel_isa())
                       .field("tile_mc", cfg.tiles.mc)
                       .field("tile_kc", cfg.tiles.kc)
                       .field("tile_nc", cfg.tiles.nc)
                       .str());
  }
  throw Error(what);
}

/// Fails unless the extent of every index in \p split (kNoIndex
/// skipped) divides the grid edge: \p who splits them into equal
/// blocks.  Whole-extent indices need not divide it.
void check_split_extents(const char* who,
                         std::initializer_list<IndexId> split,
                         const IndexSpace& space, std::uint32_t edge) {
  for (IndexId d : split) {
    if (d == kNoIndex || space.extent(d) % edge == 0) continue;
    fail_executor(std::string(who) + ": extent of index '" + space.name(d) +
                  "' (" + std::to_string(space.extent(d)) +
                  ") must divide the grid edge " + std::to_string(edge));
  }
}

/// The block triple (bi, bj, bk) processed by logical processor (w1, w2)
/// at step s — see the file comment in executor.hpp.
struct Triple {
  std::uint32_t bi, bj, bk;
};

Triple triple_at(const CannonChoice& c, std::uint32_t e, std::uint32_t w1,
                 std::uint32_t w2, std::uint32_t s) {
  const std::uint32_t moving = (w1 + w2 + s) % e;
  if (c.rot == c.k) return {w1, w2, moving};
  if (c.rot == c.i) return {moving, w2, w1};
  return {w1, moving, w2};  // rot == j
}

/// The storage of \p full (a const or mutable DenseTensor) from the
/// origin of block \p r on — where the packs and scatter_packed_acc
/// start their walk.
template <typename Tensor>
auto from_origin(Tensor& full, const BlockRange& r) {
  return full.data().subspan(full.offset(r.lo));
}

/// Lowers one executor contraction.  run_step rejects batch labels, and
/// a ContractionTree sums only indices found in both operands, so the
/// lowering is a plain M/N/K split.
/// \p left_block etc. are the block shapes every rank shares.
TtgtLowering lower_node(const ContractionNode& node,
                        const DenseTensor& left_full,
                        const BlockRange& left_block,
                        const DenseTensor& right_full,
                        const BlockRange& right_block,
                        const DenseTensor& result_full,
                        const BlockRange& result_block) {
  const TtgtGroups g = classify_ttgt(left_full, right_full,
                                     node.tensor.dims, node.sum_indices);
  TCE_EXPECTS_MSG(g.covered && g.batch.empty() && g.a_only_sum.empty() &&
                      g.b_only_sum.empty(),
                  "executor: contraction is not a plain M/N/K product");
  return lower_ttgt(g, left_full, left_block.extents(), right_full,
                    right_block.extents(), result_full,
                    result_block.extents());
}

/// The Cannon template's numerics: every rank multiplies its block
/// triple, e steps in all, while the rotating arrays ring-shift.  Requires
/// a full triplet (i, j, k all assigned) whose extents divide the grid
/// edge; other indices are never split.
CannonRunResult cannon_numerics(const ProcGrid& grid,
                                const IndexSpace& space,
                                const ContractionNode& node,
                                const CannonChoice& choice,
                                const DenseTensor& left_full,
                                const DenseTensor& right_full) {
  if (choice.i == kNoIndex || choice.j == kNoIndex ||
      choice.k == kNoIndex) {
    fail_executor(
        "run_step: the numeric executor requires a full (i,j,k) triplet");
  }
  check_split_extents("run_step", {choice.i, choice.j, choice.k}, space,
                      grid.edge);

  const std::uint32_t e = grid.edge;
  obs::count("cannon.runs");
  obs::count("cannon.steps", e);
  if (obs::trace_enabled()) {
    // The initial skewed alignment (blocks are gathered pre-aligned to
    // their step-0 triple — Cannon's skew).
    obs::trace_instant(
        "cannon.skew " + node.tensor.name, "cannon",
        json::ObjectWriter()
            .field("rotation_index", space.name(choice.rot))
            .field("transposed", choice.transposed)
            .str());
  }

  // Reconstruct symbolic refs for the operands from their labeled dims.
  TensorRef a_ref{"left", left_full.dims()};
  TensorRef b_ref{"right", right_full.dims()};
  const TensorRef& c_ref = node.tensor;

  // Sanity: triplet indices belong to the right arrays.
  TCE_EXPECTS(node.left_indices.contains(choice.i));
  TCE_EXPECTS(node.right_indices.contains(choice.j));
  TCE_EXPECTS(node.sum_indices.contains(choice.k));

  // Block ranges of the triple (bi, bj, bk) under the triplet's
  // distributions on the logical grid.  Every split extent divides the
  // grid edge, so all ranks' blocks share one shape and the contraction
  // is lowered once, from rank (0, 0)'s step-0 triple.
  const Distribution a_dist(choice.i, choice.k);
  const Distribution b_dist(choice.k, choice.j);
  const Distribution c_dist(choice.i, choice.j);
  auto a_range = [&](const Triple& t) {
    return block_range(a_ref, a_dist, space, grid, t.bi, t.bk);
  };
  auto b_range = [&](const Triple& t) {
    return block_range(b_ref, b_dist, space, grid, t.bk, t.bj);
  };
  auto c_range = [&](const Triple& t) {
    return block_range(c_ref, c_dist, space, grid, t.bi, t.bj);
  };
  CannonRunResult out;
  out.result = make_tensor(c_ref, space);
  const Triple first = triple_at(choice, e, 0, 0, 0);
  const BlockRange a_first = a_range(first);
  const BlockRange b_first = b_range(first);
  const BlockRange c_first = c_range(first);
  const TtgtLowering low = lower_node(node, left_full, a_first, right_full,
                                      b_first, out.result, c_first);

  // Per-logical-processor block state, flattened w1 * e + w2: A and B
  // in the layout of the kernel that multiplies them, the accumulated
  // result as a row-major [m][n] block.  Each operand block is packed
  // once, straight from the full tensor through the lowering's offsets;
  // rotations move whole buffers.
  PackedGemm gemm(low.m(), low.k(), low.n());
  const std::size_t np = static_cast<std::size_t>(e) * e;
  std::vector<std::vector<double>> a_blk(np), b_blk(np), c_blk(np);
  std::vector<Triple> coords(np);

  for (std::uint32_t w1 = 0; w1 < e; ++w1) {
    for (std::uint32_t w2 = 0; w2 < e; ++w2) {
      const Triple t = triple_at(choice, e, w1, w2, 0);
      const std::size_t p = static_cast<std::size_t>(w1) * e + w2;
      coords[p] = t;
      a_blk[p].resize(gemm.a_size());
      gemm.pack_a(from_origin(left_full, a_range(t)), low.a.rows, low.a.cols,
                  a_blk[p]);
      b_blk[p].resize(gemm.b_size());
      gemm.pack_b(from_origin(right_full, b_range(t)), low.b.rows,
                  low.b.cols, b_blk[p]);
      c_blk[p].assign(low.c.size(), 0.0);
    }
  }

  // Which arrays shift, and along which logical dimension (1 → w1−1,
  // 2 → w2−1).  Canonical: left shifts along dim 2, right along dim 1,
  // result along dim 1 (rot=i) or dim 2 (rot=j).
  const bool a_rot = choice.rotates_left();
  const bool b_rot = choice.rotates_right();
  const bool c_rot = choice.rotates_result();

  // The memory peak counts the logical blocks, never the kernel's
  // padded panels.  Every rank holds its three blocks plus a receive
  // buffer for the largest rotating one.
  const std::uint64_t a_bytes = checked_mul(low.a.size(), sizeof(double));
  const std::uint64_t b_bytes = checked_mul(low.b.size(), sizeof(double));
  const std::uint64_t c_bytes = checked_mul(low.c.size(), sizeof(double));
  std::uint64_t largest_moving = 0;
  if (a_rot) largest_moving = std::max(largest_moving, a_bytes);
  if (b_rot) largest_moving = std::max(largest_moving, b_bytes);
  if (c_rot) largest_moving = std::max(largest_moving, c_bytes);
  out.peak_rank_bytes = checked_add(
      checked_add(checked_add(a_bytes, b_bytes), c_bytes), largest_moving);

  auto shifted = [&](std::uint32_t w1, std::uint32_t w2,
                     int logical_dim) -> std::size_t {
    if (logical_dim == 1) w1 = (w1 + e - 1) % e;
    if (logical_dim == 2) w2 = (w2 + e - 1) % e;
    return static_cast<std::size_t>(w1) * e + w2;
  };
  // Moves \p blocks (or their coordinates) one logical step along
  // \p logical_dim.
  auto apply_shift = [&](auto& blocks, int logical_dim) {
    std::remove_reference_t<decltype(blocks)> next(np);
    for (std::uint32_t w1 = 0; w1 < e; ++w1) {
      for (std::uint32_t w2 = 0; w2 < e; ++w2) {
        const std::size_t p = static_cast<std::size_t>(w1) * e + w2;
        next[shifted(w1, w2, logical_dim)] = std::move(blocks[p]);
      }
    }
    blocks = std::move(next);
  };
  const int c_dim = choice.rot == choice.i ? 1 : 2;
  for (std::uint32_t s = 0; s < e; ++s) {
    for (std::size_t p = 0; p < np; ++p) {
      gemm.multiply_acc(a_blk[p], b_blk[p], c_blk[p]);
    }
    if (a_rot) apply_shift(a_blk, 2);
    if (b_rot) apply_shift(b_blk, 1);
    if (c_rot) {
      apply_shift(c_blk, c_dim);
      apply_shift(coords, c_dim);  // the result blocks' coordinates
    }
  }

  // Scatter the result by tracked block coordinates.  Every element of
  // the zeroed result receives exactly one block, so the accumulating
  // scatter is a plain placement.
  for (std::size_t p = 0; p < np; ++p) {
    scatter_packed_acc(c_blk[p], low.c,
                       from_origin(out.result, c_range(coords[p])));
  }
  if (obs::metrics_enabled()) {
    // Each rank's result scatter; PackedGemm counts the operand packs.
    obs::count("kernel.pack_bytes", np * low.c.size() * sizeof(double));
  }
  return out;
}

/// The replicated template's numerics: every rank contracts its
/// stationary block against the whole replicated operand, and the
/// partial results are summed into the result.  The stationary
/// distribution's indices must divide the grid edge.
CannonRunResult replicated_numerics(const ProcGrid& grid,
                                    const IndexSpace& space,
                                    const ContractionNode& node,
                                    const PlanStep& step,
                                    const DenseTensor& left_full,
                                    const DenseTensor& right_full) {
  const bool replicate_right = step.replicate_right;
  const Distribution& stationary_dist =
      replicate_right ? step.left_dist : step.right_dist;
  check_split_extents("run_step",
                      {stationary_dist.at(1), stationary_dist.at(2)}, space,
                      grid.edge);
  const std::uint32_t e = grid.edge;
  obs::count("cannon.replicated_runs");

  const DenseTensor& stat_full = replicate_right ? left_full : right_full;
  const DenseTensor& repl_full = replicate_right ? right_full : left_full;
  TensorRef stat_ref{"stationary", stat_full.dims()};
  TCE_EXPECTS_MSG(distribution_valid_for(stationary_dist, stat_ref),
                  "stationary distribution names a missing dimension");
  TCE_EXPECTS_MSG(distribution_valid_for(step.result_dist, node.tensor),
                  "result distribution names a missing dimension");

  // The partial result before the reduction, as the plan prices it; the
  // scatter position is a zero-cost relabel applied at gather time.
  const Distribution partial_layout =
      partial_dist(stationary_dist, step.result_dist);

  // Each rank contracts its stationary block against the replicated
  // operand (every rank holds it whole; the contraction reads the
  // k-slice matching the stationary block's summation range).
  TensorRef repl_ref{"replicated", repl_full.dims()};
  const IndexSet repl_dims = repl_ref.index_set();
  const Distribution repl_slice_dist(
      repl_dims.contains(stationary_dist.at(1))
          ? stationary_dist.at(1)
          : kNoIndex,
      repl_dims.contains(stationary_dist.at(2))
          ? stationary_dist.at(2)
          : kNoIndex);

  // Every rank's stationary block, replicated slice and partial result
  // share one shape, so the contraction is lowered once, from rank
  // (0, 0)'s blocks.
  auto stat_range = [&](std::uint32_t z1, std::uint32_t z2) {
    return block_range(stat_ref, stationary_dist, space, grid, z1, z2);
  };
  auto repl_range = [&](std::uint32_t z1, std::uint32_t z2) {
    return block_range(repl_ref, repl_slice_dist, space, grid, z1, z2);
  };
  auto partial_range = [&](std::uint32_t z1, std::uint32_t z2) {
    return block_range(node.tensor, partial_layout, space, grid, z1, z2);
  };
  CannonRunResult out;
  out.result = make_tensor(node.tensor, space);
  const BlockRange stat_first = stat_range(0, 0);
  const BlockRange repl_first = repl_range(0, 0);
  const BlockRange partial_first = partial_range(0, 0);
  const TtgtLowering low =
      replicate_right
          ? lower_node(node, left_full, stat_first, right_full, repl_first,
                       out.result, partial_first)
          : lower_node(node, left_full, repl_first, right_full, stat_first,
                       out.result, partial_first);

  std::uint64_t scattered = 0;
  PackedGemm gemm(low.m(), low.k(), low.n());
  std::vector<double> a_pk(gemm.a_size()), b_pk(gemm.b_size());
  std::vector<double> partial(low.c.size());
  for (std::uint32_t z1 = 0; z1 < e; ++z1) {
    for (std::uint32_t z2 = 0; z2 < e; ++z2) {
      // A replica (a grid dim that splits nothing of the stationary
      // operand and carries no reduction) repeats the work of the rank
      // at coordinate 0 along that dim; only that rank contributes, so
      // the replicas are skipped.
      if ((stationary_dist.at(1) == kNoIndex && z1 != 0) ||
          (stationary_dist.at(2) == kNoIndex && z2 != 0)) {
        continue;
      }
      const BlockRange stat_r = stat_range(z1, z2);
      const BlockRange repl_r = repl_range(z1, z2);
      gemm.pack_a(from_origin(left_full, replicate_right ? stat_r : repl_r),
                  low.a.rows, low.a.cols, a_pk);
      gemm.pack_b(from_origin(right_full, replicate_right ? repl_r : stat_r),
                  low.b.rows, low.b.cols, b_pk);
      std::fill(partial.begin(), partial.end(), 0.0);
      gemm.multiply_acc(a_pk, b_pk, partial);
      scatter_packed_acc(partial, low.c,
                         from_origin(out.result, partial_range(z1, z2)));
      scattered += partial.size();
    }
  }
  if (obs::metrics_enabled()) {
    // The contributing ranks' result scatters; PackedGemm counts the
    // operand packs.
    obs::count("kernel.pack_bytes", scattered * sizeof(double));
  }
  // Every rank holds its stationary block, the whole replicated operand
  // and its partial result.
  const std::uint64_t stat_elems =
      replicate_right ? low.a.size() : low.b.size();
  out.peak_rank_bytes = checked_mul(
      checked_add(checked_add(stat_elems, repl_full.size()), low.c.size()),
      sizeof(double));
  return out;
}

}  // namespace

CannonRunResult run_step(const Network& net, const ProcGrid& grid,
                         const IndexSpace& space,
                         const ContractionNode& node, const PlanStep& step,
                         const DenseTensor& left_full,
                         const DenseTensor& right_full) {
  if (node.kind != ContractionNode::Kind::kContraction ||
      !node.batch_indices.empty()) {
    fail_executor(
        "run_step: node is not a Cannon-representable contraction");
  }
  TCE_EXPECTS(net.spec().procs() == grid.procs);
  const bool cannon = step.tmpl == StepTemplate::kCannon;
  const obs::TraceSpan run_span(
      obs::trace_enabled()
          ? (cannon ? "cannon.run " : "replicated.run ") + node.tensor.name
          : std::string(),
      "cannon");
  CannonRunResult out =
      cannon ? cannon_numerics(grid, space, node, step.choice, left_full,
                               right_full)
             : replicated_numerics(grid, space, node, step, left_full,
                                   right_full);

  // The whole arrays ran, so the step is timed unfused.
  PlanStep unfused = step;
  unfused.fusion = IndexSet();
  unfused.effective_fused = IndexSet();
  out.timing = simulate_step(net, grid, space, node, unfused,
                             TensorRef{"left", left_full.dims()},
                             TensorRef{"right", right_full.dims()});
  if (obs::metrics_enabled()) {
    // One sample per ring-shift step of a Cannon rotation, all alike;
    // one for a replicated step.
    const std::uint32_t phases = cannon ? grid.edge : 1;
    for (std::uint32_t p = 0; p < phases; ++p) {
      obs::observe("cannon.phase_s", out.timing.total_s() / phases);
    }
  }
  return out;
}

TreeRunResult run_plan(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree, const OptimizedPlan& plan,
                       const std::map<std::string, DenseTensor>& inputs) {
  std::map<NodeId, const PlanStep*> steps;
  for (const PlanStep& s : plan.steps) steps[s.node] = &s;
  // Live values by node: inputs are read in place, intermediates are
  // owned here until their consumer has run.
  std::map<NodeId, DenseTensor> owned;
  std::map<NodeId, const DenseTensor*> values;
  auto produce = [&](NodeId id, DenseTensor t) {
    values[id] = &(owned[id] = std::move(t));
  };
  TreeRunResult out;

  for (NodeId id : tree.post_order()) {
    const ContractionNode& n = tree.node(id);
    switch (n.kind) {
      case ContractionNode::Kind::kInput: {
        auto it = inputs.find(n.tensor.name);
        if (it == inputs.end()) {
          fail_executor("run_plan: missing input '" + n.tensor.name + "'");
        }
        values[id] = &it->second;
        break;
      }
      case ContractionNode::Kind::kContraction: {
        auto it = steps.find(id);
        if (it == steps.end()) {
          fail_executor("run_plan: no plan step computes '" +
                        n.tensor.name + "'");
        }
        CannonRunResult r =
            run_step(net, grid, tree.space(), n, *it->second,
                     *values.at(n.left), *values.at(n.right));
        out.timing.comm_s += r.timing.comm_s;
        out.timing.compute_s += r.timing.compute_s;
        produce(id, std::move(r.result));
        break;
      }
      case ContractionNode::Kind::kReduce: {
        // A pure reduction over locally complete data: modeled as local
        // compute (one add per input element per processor share).
        produce(id, einsum_reduce(*values.at(n.left), n.tensor.dims));
        const PhaseResult t = simulate_reduce(net, grid, tree.flops(id));
        out.timing.comm_s += t.comm_s;
        out.timing.compute_s += t.compute_s;
        break;
      }
    }
    for (NodeId child : {n.left, n.right}) {
      if (child == kNoNode) continue;
      values.erase(child);
      owned.erase(child);
    }
  }
  auto root = owned.find(tree.root());
  out.result = root != owned.end() ? std::move(root->second)
                                   : *values.at(tree.root());
  return out;
}

TreeRunResult run_tree(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree,
                       const std::map<NodeId, CannonChoice>& choices,
                       const std::map<std::string, DenseTensor>& inputs) {
  OptimizedPlan plan;
  for (NodeId id : tree.post_order()) {
    const ContractionNode& n = tree.node(id);
    if (n.kind != ContractionNode::Kind::kContraction) continue;
    PlanStep s;
    s.node = id;
    s.result_name = n.tensor.name;
    if (auto it = choices.find(id); it != choices.end()) {
      s.choice = it->second;
    } else {
      // Default: the first fully-assigned Cannon triplet.
      const std::vector<CannonChoice> all = enumerate_cannon_choices(n);
      auto full = std::find_if(all.begin(), all.end(), [](const auto& c) {
        return c.i != kNoIndex && c.j != kNoIndex && c.k != kNoIndex;
      });
      if (full == all.end()) {
        fail_executor("run_tree: node '" + n.tensor.name +
                      "' admits no fully-assigned Cannon triplet");
      }
      s.choice = *full;
    }
    s.left_dist = s.choice.left_dist();
    s.right_dist = s.choice.right_dist();
    s.result_dist = s.choice.result_dist();
    plan.steps.push_back(std::move(s));
  }
  return run_plan(net, grid, tree, plan, inputs);
}

}  // namespace tce
