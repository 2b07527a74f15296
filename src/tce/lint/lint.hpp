#pragma once
/// \file lint.hpp
/// Static analysis of a planner problem *before* the DP search.
///
/// The verifier (tce/verify) checks a finished plan post-hoc; this
/// module is its compile-time counterpart: it examines the parsed
/// problem — expression program, index universe, processor grid, machine
/// characterization and memory limit — and reports everything that is
/// provably wrong or suspicious without running the search.  Diagnostics
/// carry stable rule ids in the verifier's style, batched (every
/// independent finding in one run, deterministic order), never
/// first-error-wins.
///
/// Rule identifiers (stable; used by tests and tooling):
///
///   expr.result-indices         result indices ≠ (∪ factors) − sum set
///   expr.sum-not-in-factors     a summation index in no factor
///   expr.repeated-dim           an index repeated within one tensor
///                               (diagonals are unsupported)
///   expr.inconsistent-arity     a tensor name used with two different
///                               index lists
///   expr.redefinition           two statements produce the same tensor
///   expr.reconsumed             an intermediate consumed more than once
///                               (programs must be trees / forests)
///   expr.needs-binarization     a statement with three or more factors
///                               (requires opmin / --opmin)
///   expr.invalid                residual validation failure not covered
///                               by a more specific rule
///   expr.unused-index           a declared index never used
///   expr.extent-one-index       a declared index of extent 1
///   expr.name-shadowing         a tensor named like a declared index
///   tree.batch-indices          a contraction with batch indices H ≠ ∅
///                               (not representable by generalized
///                               Cannon; the optimizer will reject it)
///   tree.rank-inflation         an intermediate of higher rank than
///                               either child (memory anti-pattern)
///   tree.degenerate-sum-index   a contraction/reduction summing over an
///                               extent-1 index (dead contraction dim)
///   model.grid-untileable       an array none of whose dimensions
///                               reaches the grid edge √P (every
///                               distribution leaves processors idle)
///   model.curve-extrapolation   every achievable block size falls
///                               outside a characterization curve's
///                               sampled range (all queries extrapolate)
///   mem.infeasible              the memory-infeasibility prover
///                               certifies that no plan can satisfy the
///                               per-node limit (see below)
///   comm.lb-certificate         informational: the communication
///                               prover's certified per-processor lower
///                               bound for a tree (comm_bounds.hpp);
///                               the per-node table is carried in
///                               LintReport::comm_certificates
///   comm.limit-dominated        the memory cap forces a node's
///                               communication bound above the
///                               unconstrained structural bound
///
/// The memory-infeasibility prover (`prove_memory`) computes, for every
/// tree node v, a lower bound on the per-processor resident bytes any
/// plan must spend while v's subtree executes:
///
///   minbytes(u) = min over all distributions ⟨i,j⟩ of
///                 DistBytes(u, ⟨i,j⟩, f_max(u))
///
/// with f_max(u) the full fusable set of u (the most memory any fusion
/// can save; ∅ for leaves, the root, and when fusion is disabled).
/// Under the paper's summed accounting LB(v) = Σ_{u ∈ subtree(v)}
/// minbytes(u); under liveness accounting LB(v) = Σ leaf minbytes +
/// max internal minbytes.  Every term relaxes the search independently
/// (free distribution choice per array, maximal fusion, zero transfer
/// buffers), so LB(v) ≤ the memory metric of *every* solution the DP —
/// or exhaustive enumeration — can construct at v.  If
/// LB(v) · procs_per_node exceeds the limit at any node, no plan exists
/// and the prover returns a machine-readable certificate naming the
/// binding node and the bound.  The converse does not hold: a silent
/// prover promises nothing (the search may still be infeasible).

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tce/common/error.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/dist/grid.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/expr/parser.hpp"
#include "tce/lint/comm_bounds.hpp"

namespace tce::lint {

/// How bad a finding is: errors mean the problem cannot be planned as
/// stated (the planner would reject it or provably fail); warnings are
/// suspicious but plannable; info findings carry certificates and
/// measurements, not complaints.
enum class Severity {
  kError,
  kWarning,
  kInfo,
};

/// One lint finding.
struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string node;     ///< Offending tensor/statement name; empty =
                        ///< program-level.
  std::string rule;     ///< Stable rule id (see file comment).
  std::string message;  ///< Human-readable explanation with values.
};

/// Machine-readable outcome of the memory-infeasibility prover.
struct InfeasibilityCertificate {
  std::string node;  ///< Binding node: first (post-order) tree node
                     ///< whose lower bound exceeds the limit.
  std::uint64_t lower_bound_node_bytes = 0;  ///< LB(v) · procs_per_node.
  std::uint64_t mem_limit_node_bytes = 0;    ///< The limit it exceeds.

  /// One parseable line:
  /// "certificate rule=mem.infeasible node=<name>
  ///  lower_bound_node_bytes=<n> mem_limit_node_bytes=<n>".
  std::string str() const;
};

/// The InfeasibleError optimize() throws when its prover fast path
/// certifies the limit unsatisfiable before any search.  what() is
/// "statically infeasible: <certificate line>"; front ends that answer
/// with the certificate itself (the daemon) read certificate().
class CertifiedInfeasibleError : public InfeasibleError {
 public:
  explicit CertifiedInfeasibleError(InfeasibilityCertificate certificate)
      : InfeasibleError("statically infeasible: " + certificate.str()),
        certificate_(std::move(certificate)) {}

  const InfeasibilityCertificate& certificate() const noexcept {
    return certificate_;
  }

 private:
  InfeasibilityCertificate certificate_;
};

/// Knobs mirrored from OptimizerConfig (the subset the analyses need).
struct LintConfig {
  std::uint64_t mem_limit_node_bytes = 0;  ///< 0 = unlimited (prover off).
  bool enable_fusion = true;   ///< Mirrors OptimizerConfig::enable_fusion.
  bool liveness_aware = false; ///< Mirrors OptimizerConfig::liveness_aware.
  /// Run the communication lower-bound prover (rules comm.lb-certificate
  /// and comm.limit-dominated).
  bool comm_bounds = false;
  /// Mirrors OptimizerConfig::enable_replication_template (shrinks the
  /// communication bound — the allgather escape hatch).
  bool enable_replication = false;
};

/// The lint verdict: every finding, plus how many rule evaluations ran
/// (so "zero diagnostics" is distinguishable from "zero checks").
struct LintReport {
  std::vector<Diagnostic> diagnostics;
  std::uint64_t rules_checked = 0;
  /// Set iff a mem.infeasible diagnostic was emitted.
  std::optional<InfeasibilityCertificate> certificate;
  /// One communication certificate per tree, in forest order (filled
  /// iff LintConfig::comm_bounds is set and the forest was buildable).
  std::vector<CommBoundResult> comm_certificates;

  bool ok() const {
    for (const Diagnostic& d : diagnostics) {
      if (d.severity == Severity::kError) return false;
    }
    return true;
  }
  /// Renders one line per diagnostic ("error node=T1 rule=...: ...") in
  /// emission order, the certificate line (if any), then a summary line
  /// "<N> rules checked, <M> diagnostics".
  std::string str() const;
};

/// Result of the memory prover on one tree.
struct ProverResult {
  /// The root's lower bound · procs_per_node — a certified minimum on
  /// the per-node memory any plan needs.  Deterministic; surfaced via
  /// OptimizerStats::prover_lb_node_bytes.
  std::uint64_t root_lower_bound_node_bytes = 0;
  /// Present iff some node's bound exceeds the configured limit.
  std::optional<InfeasibilityCertificate> certificate;
};

/// Runs the memory-infeasibility prover over one contraction tree (see
/// the file comment for the math).  Never claims infeasibility for an
/// instance any plan — DP or exhaustive — could satisfy (soundness; the
/// fuzz "lint" oracle cross-checks this against brute force).
ProverResult prove_memory(const ContractionTree& tree, const ProcGrid& grid,
                          const LintConfig& cfg);

/// Convenience: just the certificate (empty when the limit is 0 or no
/// bound exceeds it).
std::optional<InfeasibilityCertificate> prove_infeasible(
    const ContractionTree& tree, const ProcGrid& grid,
    const LintConfig& cfg);

/// Statement-level structural errors only (rules expr.* with error
/// severity), batched across the whole program.  Used by `tcemin plan`
/// to upgrade a first-error-wins validation failure into the full list.
std::vector<Diagnostic> structural_errors(const ParsedProgram& program);

/// The full analysis: structural rules, program hygiene warnings, tree
/// anti-patterns, model-interaction lints (skipped when \p table is
/// null), the memory-infeasibility prover (skipped when the limit is
/// 0) and the communication prover (skipped unless
/// LintConfig::comm_bounds).  Diagnostics are emitted in a
/// deterministic order: per-statement rules in program order,
/// program-level rules, tree rules in post order per tree, model rules,
/// memory rule, comm rules.
LintReport lint_program(const ParsedProgram& program, const ProcGrid& grid,
                        const CharacterizationTable* table,
                        const LintConfig& cfg);

}  // namespace tce::lint
