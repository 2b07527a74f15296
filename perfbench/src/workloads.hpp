#pragma once
/// \file workloads.hpp
/// The three benchmark workloads and the output checks they apply to
/// every op.  Checks return an empty string when the output is right and
/// a one-line reason otherwise; a failed check counts against
/// success_rate and never stops the run.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "tce/core/plan.hpp"
#include "tce/verify/verifier.hpp"

namespace perfbench {

/// Cold planning of a coupled-cluster corpus (`tcemin plan --verify
/// --json`, one op per problem).
WorkloadResult run_plan_cc(const RunOptions& opts);

/// Closed-loop clients against an in-process `serve_unix_socket` daemon
/// with Zipf popularity and a cache smaller than the problem set.
WorkloadResult run_serve_zipf(const RunOptions& opts);

/// Numeric execution of planned problems on the simulated 16- and
/// 64-processor clusters through run_tree.
WorkloadResult run_exec_cannon(const RunOptions& opts);

/// plan-cc: the op's plan JSON must equal the set-up reference
/// \p expected_json byte for byte and \p report (the verifier's verdict
/// on the plan read back from that JSON) must be clean; the paper rows
/// ("paper-table1"/"paper-table2") must also reproduce the pinned
/// Table 1/2 fields of \p plan exactly.
std::string check_plan(const std::string& label, const std::string& json,
                       const std::string& expected_json,
                       const tce::OptimizedPlan& plan,
                       const tce::VerifyReport& report);

/// serve-zipf: \p reply must be the tce-serve/1 reply to request \p id
/// of kind \p expected_kind ("plan" for hit-or-miss, "infeasible" for
/// an admission rejection).  A plan reply's plan bytes must equal
/// \p expected_plan.  Sets \p hit when the reply says "cache":"hit".
std::string check_reply(const std::string& reply, const std::string& id,
                        const std::string& expected_kind,
                        const std::string& expected_plan, bool* hit);

/// serve-zipf: the first \p count request documents of client stream
/// \p stream in a run with \p seed (ids numbered from 0).
std::vector<std::string> serve_requests(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::size_t count);

/// exec-cannon: largest element-wise difference allowed between the
/// distributed result and the reference evaluation.
inline constexpr double kExecTolerance = 1e-8;

}  // namespace perfbench
