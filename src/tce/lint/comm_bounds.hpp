#pragma once
/// \file comm_bounds.hpp
/// Static per-processor communication-volume lower bounds.
///
/// The memory prover (lint.hpp) answers "can any plan fit?"; this module
/// answers "how little can any plan *communicate*?".  For every
/// contraction node v of a tree it certifies a lower bound lb(v), in
/// 8-byte words per processor, on the communication volume any plan the
/// DP or the exhaustive enumerator can construct must spend executing v;
/// the whole-tree bound CommLB(root) = Σ_v lb(v) is sound because the
/// tree shape is fixed — every plan executes every contraction node
/// exactly once, and the per-node collectives are attributed to exactly
/// one node by the canonical word accounting (plan_comm_words below).
///
/// lb(v) = max(lb_struct(v), lb_mem(v)), with each term relaxing the
/// search independently:
///
/// * lb_struct(v) — structural bound from the template geometry.  Every
///   generalized-Cannon choice picks a rotation index from an assigned
///   position of {i,j,k} and rotates the two arrays containing it
///   (√P − 1) hops around the √P×√P grid; under any distribution and any
///   fusion the per-sweep rotated volume of array X satisfies
///   repeat(f)·DistSize(X,d,f) ≥ words(X)/P (fused dims trade a factor
///   into the repeat count, distributed dims contribute ⌈N/√P⌉ ≥ N/√P),
///   so a choice rotating X and Y moves ≥ (√P−1)·(wX + wY)/P words per
///   processor.  Minimizing over the rotation pairs the node's index
///   classes admit relaxes the distribution choice completely.  When the
///   replicate-compute-reduce template is enabled a plan may instead
///   allgather the smaller operand, receiving ≥ (P−1)·min(wA,wB)/P
///   words; the bound takes the minimum over both templates.  Zero-cost
///   redistribution and free operand acquisition only add words.
///
/// * lb_mem(v) — memory-constrained bound (Hong–Kung segmenting in the
///   style of the Loomis–Whitney / bilinear-algorithm literature),
///   active only when a per-node memory limit is set AND both operands
///   of v are input leaves, so every operand element a processor
///   multiplies must be initially resident (≤ M words, enforced by the
///   limit) or received through v's own collectives (the counted
///   words; template semantics give every leaf instance its own
///   buffers, so no other node's traffic can supply them).  Split the
///   busiest processor's ≥ mults/P multiplications into segments of M
///   received words: per segment ≤ 2M distinct elements of each operand
///   are available, and each (a, b) element pair multiplies at most
///   once, so a segment executes ≤ 4M² multiplications — giving
///   received ≥ mults/(4·P·M) − M.  When the result array is provably
///   materialized (root node, fusion disabled, or nothing fusable) the
///   result footprint per segment is also ≤ 2M and the sharper
///   surface-to-volume form applies: ≤ √(2M·2M·2M) multiplications per
///   segment, i.e. received ≥ mults/(4√2·P·√M) − M (halved from the
///   send+receive form because the canonical accounting counts each
///   rotated block once, not at both endpoints).  The materialization
///   guard is essential: a fused result is consumed in place at zero
///   communication, which breaks the segment footprint hypothesis.
///
/// `comm.limit-dominated` reports nodes where lb_mem(v) > lb_struct(v):
/// the memory cap — not the template geometry — is what forces the
/// communication up.  In this plan space blocks stay resident, so the
/// condition typically co-occurs with (near-)infeasible limits.
///
/// The companion plan_comm_words() computes the canonical achieved
/// word count of a finished plan; the fuzz oracle `commlb` asserts
/// CommLB(root) ≤ achieved for every DP and brute-force plan.

#include <cstdint>
#include <string>
#include <vector>

#include "tce/dist/grid.hpp"
#include "tce/expr/contraction.hpp"

namespace tce {
struct OptimizedPlan;  // tce/core/plan.hpp (header-only plan types)
}

namespace tce::lint {

/// Knobs the communication prover needs (subset of OptimizerConfig).
struct CommBoundConfig {
  /// Per-node memory limit; 0 disables the memory-constrained term.
  std::uint64_t mem_limit_node_bytes = 0;
  /// Mirrors OptimizerConfig::enable_fusion (or fixed fusions): when
  /// clear, every result is materialized and the sharper lb_mem form
  /// applies everywhere.
  bool enable_fusion = true;
  /// Mirrors OptimizerConfig::enable_replication_template: adds the
  /// allgather escape hatch to lb_struct.
  bool enable_replication = false;
};

/// Certified bound at one contraction node.
struct NodeCommBound {
  std::string node;                   ///< Result tensor name.
  std::uint64_t lb_struct_words = 0;  ///< Template-geometry bound.
  std::uint64_t lb_mem_words = 0;     ///< Memory-constrained bound.
  std::uint64_t lb_words = 0;         ///< max of the two.
  /// True when the memory cap forces the bound above the structural one
  /// (the comm.limit-dominated condition).
  bool limit_dominated = false;
};

/// Whole-tree certificate: per-node table plus the aggregated bound.
struct CommBoundResult {
  std::string root;  ///< Root tensor name of the certified tree.
  /// CommLB(root) = Σ lb(v) over contraction nodes, words/processor.
  std::uint64_t root_lb_words = 0;
  std::vector<NodeCommBound> nodes;  ///< Contraction nodes, post order.

  /// Parseable rendering: a header line
  /// "certificate rule=comm.lb-certificate root=<name>
  ///  comm_lb_words=<n>" followed by one indented line per node.
  std::string str() const;
};

/// Certifies the communication lower bound of one tree (see the file
/// comment for the math).  Deterministic; never claims more than any
/// DP or exhaustive plan must spend (soundness; cross-checked by the
/// fuzz `commlb` oracle).  Nodes outside the Cannon-representable space
/// (batch indices) contribute 0.
CommBoundResult prove_comm(const ContractionTree& tree, const ProcGrid& grid,
                           const CommBoundConfig& cfg);

/// The canonical achieved communication volume of \p plan, in words per
/// processor: Cannon rotations count (√P−1) received blocks per sweep,
/// an allgathered slice counts s − ⌊s/P⌋ received words per iteration,
/// a reduce-scatter of a partial counts p − ⌊p/√P⌋ (doubled for an
/// allreduce), an operand redistribution counts the source block, and a
/// reduce node's allreduce counts its result block — each scaled by the
/// enclosing fused-loop trip counts, mirroring the optimizer's cost
/// attribution term by term.  The costing kernel (core/accounting.hpp)
/// prices the same words per candidate and `optimize()` stamps the
/// chosen plan's into OptimizerStats::achieved_comm_words; this is the
/// independent recomputation from the finished plan.
std::uint64_t plan_comm_words(const ContractionTree& tree,
                              const OptimizedPlan& plan,
                              const ProcGrid& grid);

}  // namespace tce::lint
