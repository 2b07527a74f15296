#pragma once
/// \file brute.hpp
/// Exhaustive reference planner for differential testing.
///
/// Walks the optimizer's candidate space bottom-up — every Cannon choice
/// and, when enabled, every replicate-compute-reduce step — with NO
/// Pareto pruning and NO per-node feasibility filtering: every node keeps
/// every (distribution, fusion, Footprint) combination its subtree
/// admits, deduplicated only on exact equality.  Each candidate is priced
/// by the shared costing kernel (core/accounting.hpp), so what this
/// checks is the DP's enumeration, pruning and feasibility, not its
/// pricing (the verifier re-derives that independently).  The memory
/// metric and largest message are monotone nondecreasing from child to
/// parent, so filtering feasibility at the root alone yields exactly the
/// root solutions the pruned DP can reach — which makes the two directly
/// comparable:
///   * the minimum root cost must equal optimize()'s total_comm_s;
///   * every optimize_frontier() plan must exist among the brute root
///     solutions;
///   * every brute root solution must be weakly dominated by some
///     frontier plan.
///
/// Exhaustive enumeration is exponential — brute_force gives up (sets
/// BruteResult::skipped) once any node's solution list exceeds the cap.

#include <vector>

#include "tce/core/accounting.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/machine_model.hpp"
#include "tce/dist/distribution.hpp"
#include "tce/expr/contraction.hpp"

namespace tce::fuzz {

/// One exhaustive root solution.  Footprint::comm_words is the
/// differential reference for the `commlb` fuzz oracle.
struct BruteSol {
  Distribution dist;
  IndexSet fusion;
  Footprint fp;
};

/// Result of one exhaustive enumeration.
struct BruteResult {
  /// All distinct feasible root solutions (empty = infeasible).
  std::vector<BruteSol> root;
  /// True when the enumeration was abandoned because a node exceeded
  /// \p cap solutions; `root` is then meaningless.
  bool skipped = false;
};

/// Exhaustively enumerates the search space of \p tree under \p cfg.
BruteResult brute_force(const ContractionTree& tree,
                        const MachineModel& model,
                        const OptimizerConfig& cfg,
                        std::size_t cap = 200000);

}  // namespace tce::fuzz
