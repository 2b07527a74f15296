#include "tce/core/simulate.hpp"

#include "tce/common/checked.hpp"
#include "tce/common/json.hpp"
#include "tce/core/accounting.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/obs/trace.hpp"

namespace tce {

namespace {

/// \p flops of compute on every rank.
std::vector<ComputeLoad> every_rank(const ProcGrid& grid,
                                    std::uint64_t flops) {
  std::vector<ComputeLoad> loads;
  loads.reserve(grid.procs);
  for (std::uint32_t r = 0; r < grid.procs; ++r) loads.push_back({r, flops});
  return loads;
}

}  // namespace

PhaseResult simulate_step(const Network& net, const ProcGrid& grid,
                          const IndexSpace& space,
                          const ContractionNode& node, const PlanStep& step,
                          const TensorRef& left, const TensorRef& right,
                          ReplayMode mode) {
  GeomCache geom(space, grid);
  const IndexSet eff = step.effective_fused;
  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;
  PhaseResult total;
  // Runs \p phases, each \p count times in a row, and charges their sum
  // once per fused iteration (\p repeat); the trace clock advances over
  // the iterations not simulated.
  const auto run = [&](const std::vector<Phase>& phases, std::uint32_t count,
                       double repeat) {
    double once = 0;
    for (const Phase& p : phases) {
      const PhaseResult r = net.run_phase(p, count);
      once += r.comm_s;
      total.compute_s += r.compute_s;
    }
    total.comm_s += repeat * once;
    if (tracing) obs::sim_advance(repeat * once - once);
  };

  const std::uint32_t e = grid.edge;
  const std::uint64_t loop_space = node.loop_indices().extent_product(space);
  const bool cannon = step.tmpl == StepTemplate::kCannon;
  if (cannon) {
    // `edge` ring-shift steps of the rotating arrays, in one phase or one
    // each (\p mode), every rank multiplying one block triple of the loop
    // space per step.  The rotations share the step's fused loops.
    const StepCollectives sc = cannon_collectives(geom, step.choice, left,
                                                  right, node.tensor, eff);
    std::vector<RingShift> rots;
    double repeat = 1.0;
    for (const Collective* c : {&sc.left, &sc.right, &sc.result}) {
      if (c->kind != Collective::Kind::kRotate) continue;
      rots.push_back({c->bytes, c->dim});
      repeat = c->loops.repeat;
    }
    std::vector<Phase> phases;
    if (mode == ReplayMode::kConcurrent || rots.empty()) {
      phases.push_back(ring_shift_phase(grid, rots, step.result_name));
    } else {
      for (const RingShift& r : rots) {
        phases.push_back(ring_shift_phase(grid, {r}, step.result_name));
      }
    }
    phases.front().compute = every_rank(
        grid,
        checked_mul(2, loop_space / (static_cast<std::uint64_t>(e) * e * e)));
    run(phases, e, repeat);
  } else {
    // The allgather, every rank contracting its stationary block against
    // the gathered slice, and the reduction of the partials.  An
    // allreduce runs the reduce-scatter's phases twice, as it is priced.
    const Distribution& stationary =
        step.replicate_right ? step.left_dist : step.right_dist;
    const ReplStep st{step.replicate_right, stationary, step.result_dist,
                      step.reduce_dim,
                      stationary.index_set() | step.result_dist.index_set()};
    const StepCollectives sc = replicated_collectives(
        geom, st, step.replicate_right ? right : left, node.tensor, eff);
    const Collective& gather = step.replicate_right ? sc.right : sc.left;
    run(allgather_phases(grid, gather.bytes, step.result_name), 1,
        gather.loops.repeat);
    std::uint64_t flops = checked_mul(2, loop_space);
    for (int d = 1; d <= 2; ++d) {
      if (stationary.at(d) != kNoIndex) flops /= e;
    }
    Phase compute;
    compute.compute = every_rank(grid, flops);
    if (tracing) compute.label = step.result_name + " compute";
    run({compute}, 1, 1.0);
    if (sc.result.kind != Collective::Kind::kNone) {
      run(reduce_scatter_phases(grid, sc.result.dim, sc.result.bytes,
                                step.result_name),
          sc.result.kind == Collective::Kind::kAllreduce ? 2 : 1,
          sc.result.loops.repeat);
    }
  }
  if (tracing) {
    obs::trace_sim_complete(
        "step " + step.result_name, "plan", 3, base, total.total_s(),
        json::ObjectWriter()
            .field("template", cannon ? "cannon" : "replicated")
            .field("fused_iterations", geom.loops(eff).repeat)
            .str());
  }
  return total;
}

PhaseResult simulate_reduce(const Network& net, const ProcGrid& grid,
                            std::uint64_t flops) {
  Phase phase;
  phase.compute = every_rank(grid, flops / grid.procs);
  return net.run_phase(phase);
}

double simulate_plan_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree,
                          const OptimizedPlan& plan, ReplayMode mode) {
  double total = 0;
  for (const PlanStep& s : plan.steps) {
    const ContractionNode& n = tree.node(s.node);
    total += simulate_step(net, grid, tree.space(), n, s,
                           tree.node(n.left).tensor,
                           tree.node(n.right).tensor, mode)
                 .comm_s;
  }
  return total;
}

}  // namespace tce
