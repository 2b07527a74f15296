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
/// steps, allgathers and reduce-scatters for replicated steps.  A Cannon
/// rotation is timed as the executor and characterization time it, one
/// ring-shift step simulated and run √P times, so an unfused step's
/// replay equals run_cannon's comm_s bit for bit; fused-loop repeats
/// are accounted by symmetry.  bench_validate reports agreement within
/// ~1.5 %.

#include "tce/core/plan.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/simnet/network.hpp"

namespace tce {

/// How a Cannon step's rotating arrays share the network in a replay:
/// all in one phase, as the executor moves them, or each in its own
/// phase, as measure_rotation characterized them and the additive
/// RotateCost prices them (DESIGN §7).
enum class ReplayMode { kConcurrent, kSerialized };

/// Simulated communication time of one plan step on \p net.
double simulate_step_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree, const PlanStep& step,
                          ReplayMode mode = ReplayMode::kConcurrent);

/// Sum over all steps of a plan.
double simulate_plan_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree,
                          const OptimizedPlan& plan,
                          ReplayMode mode = ReplayMode::kConcurrent);

}  // namespace tce
