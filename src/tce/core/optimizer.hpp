#pragma once
/// \file optimizer.hpp
/// The paper's contribution (§3.3): memory-constrained communication
/// minimization by bottom-up dynamic programming over the contraction
/// tree.
///
/// At every node the optimizer enumerates all generalized-Cannon
/// execution choices (triplet {i,j,k}, orientation, rotation index), all
/// fused index sets between the node and its parent, and all ways of
/// obtaining the operands (child solutions, optionally redistributed).
/// Each combination yields a Solution carrying the produced distribution,
/// the fusion with the parent, the subtree communication cost, and the
/// subtree memory usage; solutions that exceed the memory limit or that
/// are Pareto-dominated within their (distribution, fusion) state are
/// pruned.  optimize() extracts only the cheapest feasible plan, so at
/// the root it keeps just the candidates tied at the lowest cost seen
/// so far and drops the rest, most of them before they are priced;
/// optimize_frontier() keeps the root's whole frontier.
///
/// Every number the search compares — cost, memory, largest message,
/// canonical words, feasibility — comes from the costing kernel in
/// accounting.hpp, whose header holds the cost-model notes.

#include "tce/core/plan.hpp"
#include "tce/costmodel/machine_model.hpp"
#include "tce/expr/contraction.hpp"

#include <map>
#include <optional>

namespace tce::lint {
struct LintConfig;       // tce/lint/lint.hpp
struct CommBoundConfig;  // tce/lint/comm_bounds.hpp
}  // namespace tce::lint

namespace tce {

/// Optimizer knobs.  The defaults implement the paper's algorithm; the
/// flags carve out the baseline strategies the benchmarks compare
/// against.
struct OptimizerConfig {
  /// Per-node memory limit in bytes (0 = unlimited).
  std::uint64_t mem_limit_node_bytes = 0;
  /// Allow loop fusion (false = unfused plans only).
  bool enable_fusion = true;
  /// Allow redistribution of unfused intermediates between steps.
  bool enable_redistribution = true;
  /// When set, every node's fusion is frozen to the given set (the
  /// "fuse first, then distribute" baseline); nodes absent from the map
  /// are frozen to unfused.
  std::optional<std::map<NodeId, IndexSet>> fixed_fusions;
  /// Extension beyond the paper: additionally consider the
  /// replicate–compute–reduce template at every contraction (allgather
  /// one operand everywhere, keep the other stationary, reduce-scatter
  /// the result partials).  When a contraction pairs a huge array with a
  /// tiny one — exactly the paper's fused T1·C step — replicating the
  /// tiny operand avoids rotating the huge one and can win by an order
  /// of magnitude.  Off by default for paper fidelity.
  bool enable_replication_template = false;
  /// Extension beyond the paper: account memory as the *peak live set*
  /// (inputs stay resident; an intermediate is freed once its consumer
  /// finishes) instead of the paper's sum over all arrays.  Liveness
  /// accounting never reduces the solution quality — it only admits
  /// plans the summed model over-counts — so the optimum under it is at
  /// most the paper-model optimum.
  bool liveness_aware = false;
  /// Run the static memory-infeasibility prover (tce/lint) before the DP
  /// when a memory limit is set: if it certifies that no plan can fit,
  /// the search is skipped and lint::CertifiedInfeasibleError carries
  /// the certificate.
  /// The prover never rejects a satisfiable instance (the fuzz "lint"
  /// oracle cross-checks this), so disabling it only costs time; the
  /// flag exists so differential tests can compare prover and raw DP.
  bool enable_static_prover = true;
  /// Worker threads for the search: the nodes are solved one after
  /// another in post order, and each node's candidate enumeration fans
  /// across the shared pool.  0 = hardware concurrency; 1 = fully
  /// sequential (no pool involvement).  The result — plans, frontier,
  /// and every OptimizerStats counter except wall times — is identical
  /// at every setting; see docs/ALGORITHM.md ("Parallel search").
  unsigned threads = 0;
};

/// The memory prover's and the communication prover's view of \p config
/// (tce/lint).  Fixed fusions count as fusion enabled.
lint::LintConfig lint_config_of(const OptimizerConfig& config);
lint::CommBoundConfig comm_config_of(const OptimizerConfig& config);

/// Runs the search and returns the cheapest plan; among equally cheap
/// ones, the one with the least memory metric, then the smallest largest
/// message, then the earliest enumerated.  Throws InfeasibleError when
/// no plan fits the memory limit (lint::CertifiedInfeasibleError when
/// the prover certifies it before the search), tce::Error when the tree
/// contains a node the Cannon framework cannot execute (batch indices).
OptimizedPlan optimize(const ContractionTree& tree,
                       const MachineModel& model,
                       const OptimizerConfig& config = {});

/// Runs the search and returns the whole Pareto frontier of root plans
/// over (communication cost, memory metric, largest message), sorted by
/// increasing cost, then memory metric, then largest message — every
/// communication/memory trade-off the tree admits.  The first element
/// equals optimize()'s result apart from search counters.  Used by the
/// forest optimizer to combine trees under a shared memory limit, and
/// useful on its own to inspect the trade-off curve.
std::vector<OptimizedPlan> optimize_frontier(
    const ContractionTree& tree, const MachineModel& model,
    const OptimizerConfig& config = {});

}  // namespace tce
