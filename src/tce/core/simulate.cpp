#include "tce/core/simulate.hpp"

#include "tce/common/json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/fusion/fused.hpp"
#include "tce/obs/trace.hpp"

namespace tce {

namespace {

/// Replicated step: per fused iteration an allgather of the replicated
/// operand's slice, plus the reduce-scatter of the result partials.
double simulate_replicated_step(const Network& net, const ProcGrid& grid,
                                const ContractionTree& tree,
                                const PlanStep& s) {
  const IndexSpace& space = tree.space();
  const ContractionNode& n = tree.node(s.node);
  const NodeId repl = s.replicate_right ? n.right : n.left;
  const IndexSet eff = s.effective_fused;
  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;

  const TensorRef& rref = tree.node(repl).tensor;
  double ag_repeat = 1.0;
  for (IndexId j : eff & rref.index_set()) {
    ag_repeat *= static_cast<double>(space.extent(j));
  }
  double simulated_s =
      net.run_phases(allgather_phases(grid, fused_bytes(rref, eff, space),
                                      s.result_name))
          .comm_s;
  double total = ag_repeat * simulated_s;

  if (s.reduce_dim != 0) {
    const IndexSet f_red = eff & n.tensor.index_set();
    double red_repeat = 1.0;
    for (IndexId j : f_red) {
      red_repeat *= static_cast<double>(space.extent(j));
    }
    const Distribution partial(
        s.reduce_dim == 2 ? s.result_dist.at(1) : kNoIndex,
        s.reduce_dim == 1 ? s.result_dist.at(2) : kNoIndex);
    const std::uint64_t partial_bytes =
        dist_bytes(n.tensor, partial, f_red, space, grid);
    // Phase by phase, in run_replicated's order, so that an unfused
    // step's replay equals the executor's comm_s bit for bit.
    for (const Phase& phase : reduce_scatter_phases(
             grid, s.reduce_dim, partial_bytes, s.result_name)) {
      const double rs_s = net.run_phase(phase).comm_s;
      simulated_s += rs_s;
      total += red_repeat * rs_s;
    }
  }
  if (tracing) {
    // One phase set was simulated; the fused-loop repeats beyond it are
    // accounted analytically — advance the clock over the remainder and
    // mark the whole step.
    obs::sim_advance(total - simulated_s);
    obs::trace_sim_complete(
        "step " + s.result_name, "plan", 3, base, total,
        json::ObjectWriter()
            .field("template", "replicated")
            .field("fused_iterations", ag_repeat)
            .str());
  }
  return total;
}

}  // namespace

/// A Cannon step is `repeat` iterations of one rotation: `edge`
/// ring-shift steps of its rotating arrays, one phase for all of them or
/// one each (\p mode).
double simulate_step_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree, const PlanStep& s,
                          ReplayMode mode) {
  if (s.tmpl == StepTemplate::kReplicated) {
    return simulate_replicated_step(net, grid, tree, s);
  }
  const IndexSpace& space = tree.space();
  const ContractionNode& n = tree.node(s.node);

  std::vector<RingShift> rots;
  const IndexSet eff = s.effective_fused;
  if (s.choice.rotates_left()) {
    rots.push_back({dist_bytes(tree.node(n.left).tensor, s.left_dist, eff,
                               space, grid),
                    s.choice.left_rot_dim()});
  }
  if (s.choice.rotates_right()) {
    rots.push_back({dist_bytes(tree.node(n.right).tensor, s.right_dist,
                               eff, space, grid),
                    s.choice.right_rot_dim()});
  }
  if (s.choice.rotates_result()) {
    rots.push_back({dist_bytes(n.tensor, s.choice.result_dist(), eff,
                               space, grid),
                    s.choice.result_rot_dim()});
  }

  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;
  std::vector<Phase> phases;
  if (mode == ReplayMode::kConcurrent) {
    phases.push_back(ring_shift_phase(grid, rots, s.result_name));
  } else {
    for (const RingShift& r : rots) {
      phases.push_back(ring_shift_phase(grid, {r}, s.result_name));
    }
  }
  double rotation = 0;
  for (const Phase& p : phases) {
    rotation += net.run_phase(p, grid.edge).comm_s;
  }

  double repeat = 1.0;
  for (IndexId j : eff) repeat *= static_cast<double>(space.extent(j));
  const double total = repeat * rotation;
  if (tracing) {
    // One rotation was replayed; the fused repeats are identical by
    // symmetry and accounted analytically — advance the clock and mark
    // the whole step.
    obs::sim_advance(total - rotation);
    obs::trace_sim_complete(
        "step " + s.result_name, "plan", 3, base, total,
        json::ObjectWriter()
            .field("template", "cannon")
            .field("fused_iterations", repeat)
            .field("rotation_steps", grid.edge)
            .field("rotation_s", rotation)
            .str());
  }
  return total;
}

double simulate_plan_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree,
                          const OptimizedPlan& plan, ReplayMode mode) {
  double total = 0;
  for (const PlanStep& s : plan.steps) {
    total += simulate_step_comm(net, grid, tree, s, mode);
  }
  return total;
}

}  // namespace tce
