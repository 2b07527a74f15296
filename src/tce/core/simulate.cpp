#include "tce/core/simulate.hpp"

#include "tce/common/checked.hpp"
#include "tce/common/json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/fusion/fused.hpp"
#include "tce/obs/trace.hpp"

namespace tce {

namespace {

/// One operand of \p node: its own result-side indices \p own plus the
/// summed and batch indices both operands carry.  The replay sizes arrays
/// by index set, so the dimension order does not matter.
TensorRef operand_ref(const ContractionNode& node, IndexSet own) {
  TensorRef ref;
  for (IndexId d : own | node.sum_indices | node.batch_indices) {
    ref.dims.push_back(d);
  }
  return ref;
}

/// Iterations of the fused loops over \p fused.
double repeats(IndexSet fused, const IndexSpace& space) {
  double r = 1.0;
  for (IndexId j : fused) r *= static_cast<double>(space.extent(j));
  return r;
}

/// \p flops of compute on every rank.
std::vector<ComputeLoad> every_rank(const ProcGrid& grid,
                                    std::uint64_t flops) {
  std::vector<ComputeLoad> loads;
  loads.reserve(grid.procs);
  for (std::uint32_t r = 0; r < grid.procs; ++r) loads.push_back({r, flops});
  return loads;
}

/// Marks step \p s, begun at simulated time \p base, on the plan lane.
/// The simulator ran \p simulated_comm_s of its communication; the
/// fused-loop repeats beyond it are accounted analytically, so the
/// clock advances over them.
void trace_step(const PlanStep& s, double base, const PhaseResult& total,
                double simulated_comm_s, const json::ObjectWriter& args) {
  obs::sim_advance(total.comm_s - simulated_comm_s);
  obs::trace_sim_complete("step " + s.result_name, "plan", 3, base,
                          total.total_s(), args.str());
}

/// A Cannon step is `repeat` iterations of one rotation: `edge`
/// ring-shift steps of its rotating arrays, one phase for all of them or
/// one each (\p mode), with every rank multiplying one block triple of
/// the loop space per ring-shift step.
PhaseResult simulate_cannon_step(const Network& net, const ProcGrid& grid,
                                 const IndexSpace& space,
                                 const ContractionNode& n, const PlanStep& s,
                                 ReplayMode mode) {
  std::vector<RingShift> rots;
  const IndexSet eff = s.effective_fused;
  auto rotate = [&](const TensorRef& ref, const Distribution& d, int dim) {
    rots.push_back({dist_bytes(ref, d, eff, space, grid), dim});
  };
  const CannonChoice& c = s.choice;
  if (c.rotates_left()) {
    rotate(operand_ref(n, n.left_indices), s.left_dist, c.left_rot_dim());
  }
  if (c.rotates_right()) {
    rotate(operand_ref(n, n.right_indices), s.right_dist, c.right_rot_dim());
  }
  if (c.rotates_result()) {
    rotate(n.tensor, c.result_dist(), c.result_rot_dim());
  }

  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;
  std::vector<Phase> phases;
  if (mode == ReplayMode::kConcurrent || rots.empty()) {
    phases.push_back(ring_shift_phase(grid, rots, s.result_name));
  } else {
    for (const RingShift& r : rots) {
      phases.push_back(ring_shift_phase(grid, {r}, s.result_name));
    }
  }
  const std::uint32_t e = grid.edge;
  phases.front().compute = every_rank(
      grid, checked_mul(2, n.loop_indices().extent_product(space) /
                               (static_cast<std::uint64_t>(e) * e * e)));
  PhaseResult rotation;
  for (const Phase& p : phases) {
    const PhaseResult r = net.run_phase(p, e);
    rotation.comm_s += r.comm_s;
    rotation.compute_s += r.compute_s;
  }

  const double repeat = repeats(eff, space);
  const PhaseResult total{repeat * rotation.comm_s, rotation.compute_s};
  if (tracing) {
    trace_step(s, base, total, rotation.comm_s,
               json::ObjectWriter()
                   .field("template", "cannon")
                   .field("fused_iterations", repeat)
                   .field("rotation_steps", e)
                   .field("rotation_s", rotation.comm_s));
  }
  return total;
}

/// Replicated step: per fused iteration an allgather of the replicated
/// operand's slice, every rank contracting its stationary block against
/// it, and the reduce-scatter of the result partials.
PhaseResult simulate_replicated_step(const Network& net,
                                     const ProcGrid& grid,
                                     const IndexSpace& space,
                                     const ContractionNode& n,
                                     const PlanStep& s) {
  const IndexSet eff = s.effective_fused;
  const TensorRef rref =
      operand_ref(n, s.replicate_right ? n.right_indices : n.left_indices);
  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;

  const double ag_repeat = repeats(eff & rref.index_set(), space);
  double simulated_s =
      net.run_phases(allgather_phases(grid, fused_bytes(rref, eff, space),
                                      s.result_name))
          .comm_s;
  PhaseResult total{ag_repeat * simulated_s, 0.0};

  const Distribution& stationary =
      s.replicate_right ? s.left_dist : s.right_dist;
  std::uint64_t flops = checked_mul(2, n.loop_indices().extent_product(space));
  for (int d = 1; d <= 2; ++d) {
    if (stationary.at(d) != kNoIndex) flops /= grid.edge;
  }
  Phase compute;
  compute.compute = every_rank(grid, flops);
  if (tracing) compute.label = s.result_name + " compute";
  total.compute_s = net.run_phase(compute).compute_s;

  if (s.reduce_dim != 0) {
    const IndexSet f_red = eff & n.tensor.index_set();
    const double red_repeat = repeats(f_red, space);
    const Distribution partial(
        s.reduce_dim == 2 ? s.result_dist.at(1) : kNoIndex,
        s.reduce_dim == 1 ? s.result_dist.at(2) : kNoIndex);
    const std::uint64_t partial_bytes =
        dist_bytes(n.tensor, partial, f_red, space, grid);
    // Phase by phase, adding each into the step as it is simulated.
    for (const Phase& phase : reduce_scatter_phases(
             grid, s.reduce_dim, partial_bytes, s.result_name)) {
      const double rs_s = net.run_phase(phase).comm_s;
      simulated_s += rs_s;
      total.comm_s += red_repeat * rs_s;
    }
  }
  if (tracing) {
    trace_step(s, base, total, simulated_s,
               json::ObjectWriter()
                   .field("template", "replicated")
                   .field("fused_iterations", ag_repeat));
  }
  return total;
}

}  // namespace

PhaseResult simulate_step(const Network& net, const ProcGrid& grid,
                          const IndexSpace& space,
                          const ContractionNode& node, const PlanStep& step,
                          ReplayMode mode) {
  if (step.tmpl == StepTemplate::kReplicated) {
    return simulate_replicated_step(net, grid, space, node, step);
  }
  return simulate_cannon_step(net, grid, space, node, step, mode);
}

double simulate_plan_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree,
                          const OptimizedPlan& plan, ReplayMode mode) {
  double total = 0;
  for (const PlanStep& s : plan.steps) {
    total += simulate_step(net, grid, tree.space(), tree.node(s.node), s,
                           mode)
                 .comm_s;
  }
  return total;
}

}  // namespace tce
