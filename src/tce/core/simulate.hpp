#pragma once
/// \file simulate.hpp
/// Brute-force flow-level simulation of an optimized plan.
///
/// The optimizer *predicts* communication from the characterization
/// table; this module *replays* the plan's communication on the cluster
/// simulator and so checks the plan's own accounting: which arrays move
/// at each step, how many bytes, and how many times the fused loops
/// repeat them.  The flows themselves are the collectives the table was
/// measured from (costmodel/characterize.hpp): ring shifts for Cannon
/// steps, allgathers and reduce-scatters for replicated steps, plus each
/// rank's block-product flops.  A Cannon rotation is timed as
/// characterization times it, one ring-shift step simulated and run √P
/// times; fused-loop repeats are accounted by symmetry.  This is the one
/// place a PlanStep becomes simulated phases: the numeric executor
/// (cannon/executor.hpp) takes its timing from simulate_step of the
/// unfused step.  `tcemin validate` reports agreement within ~1.5 % on
/// the paper's plans.

#include "tce/core/plan.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/simnet/network.hpp"

namespace tce {

/// How a Cannon step's rotating arrays share the network in a replay:
/// all in one phase, as the executor moves them, or each in its own
/// phase, as measure_rotation characterized them and the additive
/// RotateCost prices them (DESIGN §7).
enum class ReplayMode { kConcurrent, kSerialized };

/// Simulated time of plan step \p step, which computes \p node: the
/// communication of its collectives over every fused-loop repeat, and
/// the per-rank compute of its block products.
PhaseResult simulate_step(const Network& net, const ProcGrid& grid,
                          const IndexSpace& space,
                          const ContractionNode& node, const PlanStep& step,
                          ReplayMode mode = ReplayMode::kConcurrent);

/// Sum over all steps of a plan of their simulated communication.
double simulate_plan_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree,
                          const OptimizedPlan& plan,
                          ReplayMode mode = ReplayMode::kConcurrent);

}  // namespace tce
