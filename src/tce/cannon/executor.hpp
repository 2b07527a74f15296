#pragma once
/// \file executor.hpp
/// Distributed execution of generalized Cannon contractions on the
/// simulated cluster.
///
/// The executor is an SPMD simulation: every rank owns real double-
/// precision blocks and local block products run through the
/// packed-operand GEMM (PackedGemm).  Its communication is the machine's
/// shared collectives (costmodel/characterize.hpp), priced under
/// contention by the flow-level network simulator: a Cannon rotation is
/// one ring_shift_phase of the logical blocks plus one block product's
/// flops on every rank, simulated once and run √P times, exactly as
/// characterization measures a rotation and core/simulate replays one;
/// the replicated template runs the allgather and reduce-scatter
/// builders.  Each contraction is lowered once per run, and every rank
/// packs its operand blocks once, into the layout of the kernel that
/// multiplies them, and keeps them packed until the final scatter
/// (docs/KERNELS.md).  The result is therefore both a
/// *numerically correct* output tensor (validated against the reference
/// einsum in tests) and a *simulated wall time* decomposed into
/// communication and computation.
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

/// Executes one contraction node with the given Cannon choice.  The
/// operand tensors are full arrays (the executor scatters them into the
/// schedule's block placement; initial distribution is free per §3.3).
/// Requires a full triplet (i, j, k all assigned) whose extents divide
/// the grid edge; other indices are never split.  Every failure throws
/// tce::Error and logs cannon/executor.fail.
CannonRunResult run_cannon(const Network& net, const ProcGrid& grid,
                           const IndexSpace& space,
                           const ContractionNode& node,
                           const CannonChoice& choice,
                           const DenseTensor& left_full,
                           const DenseTensor& right_full);

/// Execution parameters of a replicate–compute–reduce contraction: one
/// operand is gathered whole onto every rank, the other stays blocked by
/// \p stationary_dist, each rank contracts its block against the full
/// copy, and the partial results are combined along \p reduce_dim
/// (0 = no reduction needed) into \p result_dist.
struct ReplicatedSpec {
  bool replicate_right = true;
  Distribution stationary_dist;
  Distribution result_dist;
  int reduce_dim = 0;
};

/// Executes one contraction with the replicated template: allgather
/// timing + per-rank block×full contraction + reduce-scatter timing,
/// with real numerics throughout.  The stationary distribution's
/// indices must divide the grid edge.
CannonRunResult run_replicated(const Network& net, const ProcGrid& grid,
                               const IndexSpace& space,
                               const ContractionNode& node,
                               const ReplicatedSpec& spec,
                               const DenseTensor& left_full,
                               const DenseTensor& right_full);

/// How one tree node executes in run_tree.
struct ExecChoice {
  bool replicated = false;
  CannonChoice cannon{};    ///< Used when !replicated.
  ReplicatedSpec repl{};    ///< Used when replicated.
};

/// How plan step \p s executes: its replicated spec, or its Cannon
/// choice.
ExecChoice exec_choice_of(const PlanStep& s);

/// Per-tree execution: runs every contraction node of \p tree through
/// run_cannon / run_replicated with the given per-node choices (keyed by
/// NodeId), chaining results; kReduce nodes are evaluated with the
/// reference reducer (their cost is a local sum when the reduced
/// dimensions are unsplit under the chosen distributions, which the
/// full-triplet requirement guarantees for the chained value).  Returns
/// the final tensor and the summed contraction timings.
struct TreeRunResult {
  DenseTensor result;
  PhaseResult timing;
};
TreeRunResult run_tree(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree,
                       const std::map<NodeId, ExecChoice>& choices,
                       const std::map<std::string, DenseTensor>& inputs);

/// Convenience overload: Cannon choices only.
TreeRunResult run_tree(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree,
                       const std::map<NodeId, CannonChoice>& choices,
                       const std::map<std::string, DenseTensor>& inputs);

}  // namespace tce
