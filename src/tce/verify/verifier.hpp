#pragma once
/// \file verifier.hpp
/// Independent plan-invariant checking.
///
/// The optimizer (§3.3) enforces every legality rule of the paper
/// *inside* its search: fusion legality and the no-recomputation nesting
/// rule (§2, §3.2(iii)), agreement of fused-index ranges between producer
/// and consumer, Cannon triplet/orientation consistency (§3.1), and the
/// per-node memory bound (§4).  A bug there silently yields
/// plausible-but-illegal plans and corrupted Table 1/2 numbers.  This
/// module is the defense: PlanVerifier takes a finished OptimizedPlan and
/// re-derives every invariant from scratch — sharing only the leaf cost
/// and bookkeeping formulas (dist_bytes, fused_ref, rotate/redistribute
/// curves), none of the search code — and reports violations as
/// structured diagnostics instead of aborting on the first failure.
///
/// Deliberately, this header depends only on data-type headers
/// (tce/core/plan.hpp is a plain struct) so the verify library sits
/// *below* tce_core in the link graph and the optimizer itself can call
/// it (the TCE_VERIFY_PLANS debug mode) without a dependency cycle.
///
/// Rule identifiers (stable; used by tests and tooling):
///   structure.steps             one PlanStep per contraction node, in
///                               valid post-order
///   structure.result-name       step result names match the tree and are
///                               unique
///   structure.array-rows        array table rows cover consumed leaves +
///                               internal nodes and agree with the steps
///   cannon.triplet              {i,j,k} drawn from the node's I/J/K sets
///   cannon.rotation             rotation index is an assigned triplet
///                               member
///   cannon.orientation          recorded α/β/γ equal the triplet's
///                               distributions (with orientation)
///   repl.layout                 replicated operand consumed as ⟨·,·⟩;
///                               stationary distribution drawn from the
///                               proper index sets
///   repl.reduce-dim             reduce_dim names the grid dimension
///                               splitting the summation index (0 = none)
///   fusion.subset               step fusion ⊆ fusable_indices(node)
///   fusion.nesting              no-recomputation rule on every
///                               producer/consumer edge
///   fusion.effective-closure    effective_fused = fusion ∪ children's
///                               fusions
///   dist.fused-undistributed    fused indices never grid-distributed
///   dist.operand-agreement      fused operands consumed in their produced
///                               distribution; redistribution only for
///                               materialized intermediates
///   reduce.result-dist          reduce-node distribution drops exactly
///                               the reduced indices
///   cost.rotation               per-step rotation/allgather/reduce comm
///                               matches the cost model
///   cost.redistribution         per-step redistribution comm matches
///   cost.reduce                 reduce-node partial-sum comm matches
///   cost.total                  total_comm_s matches the recomputed sum,
///                               and stats.achieved_comm_words the
///                               recounted canonical words
///   cost.compute                total_compute_s matches flops/P/rate
///   mem.array-row               per-array bytes match the recomputed
///                               block sizes
///   mem.array-total             array_bytes_per_proc matches the sum
///   mem.peak-live               peak_live_bytes_per_proc matches the
///                               recomputed liveness peak
///   mem.max-message             max_msg_bytes_per_proc matches the
///                               largest recomputed transfer
///   mem.limit                   the per-node memory bound holds

#include <cstdint>
#include <string>
#include <vector>

#include "tce/core/plan.hpp"
#include "tce/costmodel/machine_model.hpp"
#include "tce/expr/contraction.hpp"

namespace tce {

/// How bad a finding is.  Everything the verifier currently checks is a
/// hard legality or accounting rule, so most findings are errors;
/// warnings are reserved for recomputations that are within an order of
/// magnitude but outside tolerance.
enum class Severity {
  kError,
  kWarning,
};

/// One verification finding.
struct Diagnostic {
  Severity severity = Severity::kError;
  NodeId node = kNoNode;  ///< Offending tree node; kNoNode = plan-level.
  std::string rule;       ///< Stable rule id (see file comment).
  std::string message;    ///< Human-readable explanation with values.
};

/// Verification knobs.
struct VerifyOptions {
  /// Per-node memory limit the plan must respect (0 = skip mem.limit).
  std::uint64_t mem_limit_node_bytes = 0;
  /// Relative tolerance for floating-point cost comparisons.  The
  /// verifier evaluates the very same model curves the optimizer did, so
  /// recomputed values normally agree to the last bit; the tolerance only
  /// absorbs benign re-association of sums.
  double rel_tol = 1e-6;
};

/// The verifier's verdict: every violation found, plus how many rule
/// evaluations ran (so "zero diagnostics" is distinguishable from "zero
/// checks").
struct VerifyReport {
  std::vector<Diagnostic> diagnostics;
  std::uint64_t rules_checked = 0;

  bool ok() const {
    for (const Diagnostic& d : diagnostics) {
      if (d.severity == Severity::kError) return false;
    }
    return true;
  }
  /// Renders one line per diagnostic ("error node=T1 rule=cannon.triplet:
  /// ...") followed by a summary line.
  std::string str(const ContractionTree& tree) const;
};

/// Re-derives every invariant of \p plan against \p tree and \p model
/// from scratch.  Never throws on a bad plan — all violations are
/// collected in the report; throws tce::Error only when the plan is too
/// malformed to even index into the tree (wrong tree entirely).
VerifyReport verify_plan(const ContractionTree& tree,
                         const MachineModel& model,
                         const OptimizedPlan& plan,
                         const VerifyOptions& opts = {});

/// True when the TCE_VERIFY_PLANS environment variable enables the debug
/// mode in which the optimizer verifies every plan it emits before
/// returning ("", "0" and unset mean off).
bool verify_plans_enabled();

}  // namespace tce
