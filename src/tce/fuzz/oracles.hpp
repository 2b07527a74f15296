#pragma once
/// \file oracles.hpp
/// The differential oracles: independent ways of evaluating a plan (or
/// the planner) that must agree with the DP optimizer.
///
///   brute    exhaustive enumeration (brute.hpp) vs the DP root frontier;
///            both price candidates with core/accounting, so this checks
///            the DP's enumeration, pruning and feasibility
///   threads  plans at --threads 1 and --threads 8 are byte-identical
///   verify   every plan passes the rule-based verifier, including after
///            a JSON round trip through the plan codec
///   simnet   the cost model's predicted rotation seconds match the
///            flow-level network simulation (characterized instances)
///   exec     the distributed numeric executor reproduces the dense
///            reference einsum (exec-friendly instances)
///   lint     the static memory-infeasibility prover (tce/lint) is sound:
///            whenever it certifies "no plan fits", the raw DP (fast
///            path disabled) and brute-force enumeration both agree;
///            prover silence claims nothing and is never checked
///   commlb   the static communication lower-bound prover is sound:
///            CommLB(root) ≤ the canonical achieved word count of the
///            DP plan and of every brute-force root solution, and the
///            stats stamped on the DP plan (comm_lb_words, and the
///            achieved_comm_words core/accounting priced) match
///            independent recomputation (lint::plan_comm_words)
///
/// Each oracle returns pass / skip / fail plus a human-readable detail;
/// a skip means the instance is outside the oracle's domain (e.g. an
/// analytic-model instance for simnet, or a search space above brute
/// force's cap), never that a check was silently weakened.

#include <string>

#include "tce/costmodel/machine_model.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/fuzz/generator.hpp"
#include "tce/simnet/network.hpp"

namespace tce::fuzz {

enum class OracleStatus { kPass, kSkip, kFail };

struct OracleOutcome {
  OracleStatus status = OracleStatus::kPass;
  std::string detail;  ///< Failure explanation or skip reason.
};

/// Everything an oracle needs about one instance.  `net` is null when
/// the instance needs no network (analytic, non-exec runs).
struct OracleInput {
  const FuzzInstance* inst = nullptr;
  const ContractionTree* tree = nullptr;
  const MachineModel* model = nullptr;
  const Network* net = nullptr;
};

OracleOutcome oracle_brute(const OracleInput& in);
OracleOutcome oracle_threads(const OracleInput& in);
OracleOutcome oracle_verify(const OracleInput& in);
OracleOutcome oracle_simnet(const OracleInput& in);
OracleOutcome oracle_exec(const OracleInput& in);
OracleOutcome oracle_lint(const OracleInput& in);
OracleOutcome oracle_commlb(const OracleInput& in);

/// Runs the named oracle ("brute", "threads", "verify", "simnet",
/// "exec", "lint", "commlb").  Throws ContractViolation on an unknown
/// name.
OracleOutcome run_oracle(const std::string& name, const OracleInput& in);

}  // namespace tce::fuzz
