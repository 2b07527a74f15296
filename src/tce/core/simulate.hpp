#pragma once
/// \file simulate.hpp
/// Brute-force flow-level simulation of an optimized plan.
///
/// The optimizer *predicts* communication from the characterization
/// table; this module *replays* each step's collectives, as
/// core/accounting.hpp lists and prices them, on the cluster simulator,
/// as the collectives the table was measured from: ring shifts for Cannon
/// steps, allgathers and reduce-scatters (twice for an allreduce) for
/// replicated steps, plus each rank's block-product flops.  It checks the
/// characterized curves; the plan verifier recounts bytes and repeats.  A
/// Cannon rotation is timed as characterization times it, one ring-shift
/// step simulated and run √P times; fused-loop repeats are accounted by
/// symmetry.  Redistributions and reduce-node collectives are priced but
/// not replayed, so `tcemin validate` leaves them out of both its columns;
/// it reports agreement within ~1.5 % on the paper's plans.  The numeric
/// executor (cannon/executor.hpp) takes its timing from here.

#include "tce/core/plan.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/simnet/network.hpp"

namespace tce {

/// How a Cannon step's rotating arrays share the network in a replay:
/// all in one phase, as the executor moves them, or each in its own
/// phase, as measure_rotation characterized them and the additive
/// RotateCost prices them (DESIGN §7).
enum class ReplayMode { kConcurrent, kSerialized };

/// Simulated time of plan step \p step, which computes \p node from \p left
/// and \p right: the communication of its collectives over every fused-loop
/// repeat, and the per-rank compute of its block products.
PhaseResult simulate_step(const Network& net, const ProcGrid& grid,
                          const IndexSpace& space,
                          const ContractionNode& node, const PlanStep& step,
                          const TensorRef& left, const TensorRef& right,
                          ReplayMode mode = ReplayMode::kConcurrent);

/// Simulated time of a reduce node of \p flops: each rank computes its share.
PhaseResult simulate_reduce(const Network& net, const ProcGrid& grid,
                            std::uint64_t flops);

/// Sum over all steps of a plan of their simulated communication.
double simulate_plan_comm(const Network& net, const ProcGrid& grid,
                          const ContractionTree& tree,
                          const OptimizedPlan& plan,
                          ReplayMode mode = ReplayMode::kConcurrent);

}  // namespace tce
