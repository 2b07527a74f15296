#pragma once
/// \file executor.hpp
/// Distributed execution of planned contraction steps on the simulated
/// cluster.
///
/// The executor is an SPMD simulation: every rank owns real double-
/// precision blocks and local block products run through the
/// packed-operand GEMM (PackedGemm).  It runs a PlanStep's numerics on
/// whole arrays, so a fused step runs unfused, and takes its simulated
/// time from core/simulate's replay of that unfused step: it builds no
/// communication of its own.  Each contraction is lowered once per run,
/// to row and column offsets of a block in its full tensor, and every
/// rank packs its operand blocks once, straight from the full tensors
/// through those offsets, into the layout of the kernel that multiplies
/// them, and keeps them packed until the final scatter.  The replicated
/// template runs only the ranks that contribute to the result; a
/// replica would repeat another rank's product (docs/KERNELS.md).  The
/// result is therefore both a *numerically correct* output tensor
/// (validated against the reference einsum in tests) and a *simulated
/// wall time* decomposed into communication and computation.
///
/// Block schedule (canonical orientation; the transposed orientation
/// swaps the grid dimensions): with e = √P, processor (z1, z2) at step s
/// works on the block triple
///   rot = k:  (bi, bj, bk) = (z1, z2, (z1+z2+s) mod e)
///   rot = i:  (bi, bj, bk) = ((z1+z2+s) mod e, z2, z1)
///   rot = j:  (bi, bj, bk) = (z1, (z1+z2+s) mod e, z2)
/// so that the blocks meeting at a processor always agree on the shared
/// coordinates.  The two rotating arrays ring-shift along opposite grid
/// dimensions after each step; the full contraction is e compute steps
/// and e shift phases, matching the paper's "fully rotated ... in √P
/// rotation steps" accounting.  Alignment skews are constant-offset
/// relabelings of equally-shaped blocks and are free, consistent with the
/// paper's zero cost for non-rotated arrays and free initial
/// distributions.

#include "tce/core/plan.hpp"
#include "tce/costmodel/machine_model.hpp"
#include "tce/dist/cannon_space.hpp"
#include "tce/simnet/network.hpp"
#include "tce/tensor/block.hpp"
#include "tce/tensor/einsum.hpp"

namespace tce {

/// Result of one distributed contraction.
struct CannonRunResult {
  DenseTensor result;        ///< Gathered full result array.
  PhaseResult timing;        ///< Simulated comm/compute time.
  std::uint64_t peak_rank_bytes = 0;  ///< Max bytes resident on any rank.
};

/// Executes plan step \p step, which computes contraction \p node.  The
/// operand tensors are full arrays (the executor scatters them into the
/// schedule's block placement; initial distribution is free per §3.3).
/// A Cannon step needs a full triplet (i, j, k all assigned); the
/// indices either template splits must have extents that divide the grid
/// edge, and other indices are never split.  The timing is
/// simulate_step of the step with its fusion cleared.  Every failure
/// throws tce::Error and logs cannon/executor.fail.
CannonRunResult run_step(const Network& net, const ProcGrid& grid,
                         const IndexSpace& space,
                         const ContractionNode& node, const PlanStep& step,
                         const DenseTensor& left_full,
                         const DenseTensor& right_full);

/// Result of running a whole tree: the final tensor and the summed
/// step timings.
struct TreeRunResult {
  DenseTensor result;
  PhaseResult timing;
};

/// Runs every contraction node of \p tree through run_step with its
/// step of \p plan, chaining results; kReduce nodes are evaluated with
/// the reference reducer (their cost is a local sum when the reduced
/// dimensions are unsplit under the chosen distributions, which the
/// full-triplet requirement guarantees for the chained value).
TreeRunResult run_plan(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree, const OptimizedPlan& plan,
                       const std::map<std::string, DenseTensor>& inputs);

/// run_plan over unfused Cannon steps with the given per-node choices
/// (keyed by NodeId); a node without one takes its first fully-assigned
/// triplet.
TreeRunResult run_tree(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree,
                       const std::map<NodeId, CannonChoice>& choices,
                       const std::map<std::string, DenseTensor>& inputs);

}  // namespace tce
