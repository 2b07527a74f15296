#include "tce/fuzz/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "tce/cannon/executor.hpp"
#include "tce/common/assert.hpp"
#include "tce/common/error.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/simulate.hpp"
#include "tce/fuzz/brute.hpp"
#include "tce/lint/lint.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/verify/verifier.hpp"

namespace tce::fuzz {

namespace {

OracleOutcome pass() { return {OracleStatus::kPass, ""}; }
OracleOutcome skip(std::string why) {
  return {OracleStatus::kSkip, std::move(why)};
}
OracleOutcome fail(std::string why) {
  return {OracleStatus::kFail, std::move(why)};
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b)) +
                                1e-12;
}

/// optimize() with InfeasibleError mapped to nullopt.
std::optional<OptimizedPlan> try_optimize(const OracleInput& in,
                                          unsigned threads = 1) {
  try {
    return optimize(*in.tree, *in.model, config_of(*in.inst, threads));
  } catch (const InfeasibleError&) {
    return std::nullopt;
  }
}

}  // namespace

OracleOutcome oracle_brute(const OracleInput& in) {
  const OptimizerConfig cfg = config_of(*in.inst);
  const BruteResult br = brute_force(*in.tree, *in.model, cfg);
  if (br.skipped) return skip("search space above brute-force cap");

  std::vector<OptimizedPlan> frontier;
  bool infeasible = false;
  try {
    frontier = optimize_frontier(*in.tree, *in.model, cfg);
  } catch (const InfeasibleError&) {
    infeasible = true;
  }
  if (infeasible != br.root.empty()) {
    return fail(std::string("feasibility disagreement: DP says ") +
                (infeasible ? "infeasible" : "feasible") +
                ", brute force says " +
                (br.root.empty() ? "infeasible" : "feasible"));
  }
  if (infeasible) return pass();

  const bool lv = cfg.liveness_aware;
  double min_cost = br.root.front().fp.cost;
  for (const BruteSol& s : br.root) min_cost = std::min(min_cost, s.fp.cost);
  if (!close(min_cost, frontier.front().total_comm_s)) {
    return fail("optimal cost mismatch: DP " +
                std::to_string(frontier.front().total_comm_s) +
                " vs brute " + std::to_string(min_cost));
  }

  // Every DP frontier plan must be reachable by exhaustive enumeration.
  for (const OptimizedPlan& p : frontier) {
    const bool found = std::any_of(
        br.root.begin(), br.root.end(), [&](const BruteSol& s) {
          return close(s.fp.cost, p.total_comm_s) &&
                 s.fp.mem == p.array_bytes_per_proc &&
                 s.fp.max_msg == p.max_msg_bytes_per_proc &&
                 memory_metric(s.fp, /*liveness=*/true) ==
                     p.peak_live_bytes_per_proc;
        });
    if (!found) {
      return fail("DP frontier plan (cost " +
                  std::to_string(p.total_comm_s) + ", mem " +
                  std::to_string(p.array_bytes_per_proc) +
                  ") not reachable by brute force");
    }
  }

  // Every exhaustive solution must be weakly dominated by some DP plan
  // on (cost, memory metric, largest message) — otherwise the DP pruned
  // a Pareto point it should have kept.
  for (const BruteSol& s : br.root) {
    const std::uint64_t s_metric = memory_metric(s.fp, lv);
    const bool covered = std::any_of(
        frontier.begin(), frontier.end(), [&](const OptimizedPlan& p) {
          const std::uint64_t p_metric =
              lv ? p.peak_live_bytes_per_proc : p.array_bytes_per_proc;
          return (p.total_comm_s <= s.fp.cost ||
                  close(p.total_comm_s, s.fp.cost)) &&
                 p_metric <= s_metric &&
                 p.max_msg_bytes_per_proc <= s.fp.max_msg;
        });
    if (!covered) {
      return fail("brute-force solution (cost " +
                  std::to_string(s.fp.cost) + ", metric " +
                  std::to_string(s_metric) + ", msg " +
                  std::to_string(s.fp.max_msg) +
                  ") is not dominated by any DP frontier plan");
    }
  }
  return pass();
}

OracleOutcome oracle_threads(const OracleInput& in) {
  // Wall times are the one documented nondeterminism in a plan; blank
  // them so the comparison covers every decision-carrying field.
  const auto stamp = [&](OptimizedPlan p) {
    p.stats.search_wall_s = 0;
    for (NodeSearchStats& n : p.stats.nodes) n.wall_s = 0;
    return plan_to_json(p, in.tree->space());
  };
  std::optional<std::string> one, eight;
  if (auto p = try_optimize(in, 1)) one = stamp(std::move(*p));
  if (auto p = try_optimize(in, 8)) eight = stamp(std::move(*p));
  if (one.has_value() != eight.has_value()) {
    return fail(std::string("--threads 1 ") +
                (one ? "found a plan" : "was infeasible") +
                " but --threads 8 " +
                (eight ? "found a plan" : "was infeasible"));
  }
  if (one && *one != *eight) {
    std::size_t at = 0;
    while (at < one->size() && at < eight->size() &&
           (*one)[at] == (*eight)[at]) {
      ++at;
    }
    return fail("plan JSON differs between --threads 1 and --threads 8 "
                "(first difference at byte " +
                std::to_string(at) + ")");
  }
  return pass();
}

OracleOutcome oracle_verify(const OracleInput& in) {
  const auto plan = try_optimize(in);
  if (!plan) return skip("infeasible under the memory limit");
  VerifyOptions vo;
  vo.mem_limit_node_bytes = in.inst->mem_limit_node_bytes;
  const VerifyReport report = verify_plan(*in.tree, *in.model, *plan, vo);
  if (!report.ok()) return fail(report.str(*in.tree));

  const std::string json = plan_to_json(*plan, in.tree->space());
  OptimizedPlan back;
  try {
    back = plan_from_json(json, *in.tree);
  } catch (const Error& e) {
    return fail(std::string("plan JSON does not parse back: ") + e.what());
  }
  if (!close(back.total_comm_s, plan->total_comm_s) ||
      back.array_bytes_per_proc != plan->array_bytes_per_proc ||
      back.max_msg_bytes_per_proc != plan->max_msg_bytes_per_proc ||
      back.peak_live_bytes_per_proc != plan->peak_live_bytes_per_proc) {
    return fail("JSON round trip changed the plan totals");
  }
  const VerifyReport again = verify_plan(*in.tree, *in.model, back, vo);
  if (!again.ok()) {
    return fail("plan fails verification after JSON round trip:\n" +
                again.str(*in.tree));
  }
  return pass();
}

OracleOutcome oracle_simnet(const OracleInput& in) {
  if (!in.inst->characterized || in.net == nullptr) {
    return skip("analytic model has no reference network");
  }
  const auto plan = try_optimize(in);
  if (!plan) return skip("infeasible under the memory limit");
  double pred = 0;
  for (const PlanStep& s : plan->steps) {
    pred += s.rot_left_s + s.rot_right_s + s.rot_result_s;
  }
  const double sim =
      simulate_plan_comm(*in.net, in.model->grid(), *in.tree, *plan);
  if (pred <= 1e-9) {
    if (sim > 1e-6) {
      return fail("model predicts no rotation traffic but simulation "
                  "measures " +
                  std::to_string(sim) + " s");
    }
    return pass();
  }
  // Inside the measured block-size range the characterized curves track
  // the simulation closely; when the search had to extrapolate below or
  // above the ladder (tiny or huge blocks) the curve shape is a guess
  // and only the order of magnitude is checked.
  const double tol = plan->stats.extrapolations > 0 ? 1.5 : 0.35;
  const double rel = std::abs(sim - pred) / pred;
  if (rel > tol) {
    return fail("predicted rotation time " + std::to_string(pred) +
                " s vs simulated " + std::to_string(sim) +
                " s (relative error " + std::to_string(rel) +
                ", tolerance " + std::to_string(tol) + ")");
  }
  return pass();
}

OracleOutcome oracle_exec(const OracleInput& in) {
  if (in.net == nullptr) return skip("no network to execute on");
  const auto plan = try_optimize(in);
  if (!plan) return skip("infeasible under the memory limit");

  const ProcGrid& grid = in.model->grid();
  for (const auto& [name, extent] : in.inst->indices) {
    if (extent % grid.edge != 0) {
      return skip("extents not divisible by the grid edge");
    }
  }
  std::map<NodeId, ExecChoice> choices;
  for (const PlanStep& s : plan->steps) {
    ExecChoice ec;
    if (s.tmpl == StepTemplate::kReplicated) {
      ec.replicated = true;
      ec.repl.replicate_right = s.replicate_right;
      ec.repl.stationary_dist =
          s.replicate_right ? s.left_dist : s.right_dist;
      ec.repl.result_dist = s.result_dist;
      ec.repl.reduce_dim = s.reduce_dim;
    } else {
      if (s.choice.i == kNoIndex || s.choice.j == kNoIndex ||
          s.choice.k == kNoIndex) {
        return skip("plan has a partial Cannon triplet");
      }
      ec.cannon = s.choice;
    }
    choices[s.node] = ec;
  }

  Rng rng(in.inst->seed ^ 0xE45C0DEDULL);
  const auto inputs = make_random_inputs(*in.tree, rng);
  // The ground truth is the reference loop nest, pinned explicitly so
  // the oracle never compares the tiled kernel against itself; the
  // executor then runs under *both* kernels, which differentially
  // exercises the TTGT lowering and the tiled GEMM on every fuzzed
  // shape.
  DenseTensor want = [&] {
    ScopedKernelConfig force_ref(KernelKind::kReference);
    return evaluate_tree(*in.tree, inputs);
  }();

  double scale = 1.0;
  for (double v : want.data()) scale = std::max(scale, std::abs(v));
  for (const KernelKind kind :
       {KernelKind::kReference, KernelKind::kTiled}) {
    ScopedKernelConfig force(kind);
    const TreeRunResult got =
        run_tree(*in.net, grid, *in.tree, choices, inputs);
    const double diff = got.result.max_abs_diff(want);
    if (diff > 1e-9 * scale) {
      return fail(std::string("distributed execution (kernel=") +
                  kernel_kind_name(kind) +
                  ") differs from the reference einsum: max |Δ| = " +
                  std::to_string(diff));
    }
  }
  return pass();
}

OracleOutcome oracle_lint(const OracleInput& in) {
  if (in.inst->mem_limit_node_bytes == 0) {
    return skip("no memory limit; nothing for the prover to certify");
  }
  OptimizerConfig cfg = config_of(*in.inst);
  const std::optional<lint::InfeasibilityCertificate> cert =
      lint::prove_infeasible(*in.tree, in.model->grid(),
                             lint_config_of(cfg));
  // Prover silence is not a feasibility claim — only a certificate is
  // checkable.
  if (!cert) return pass();

  // The raw DP (fast path disabled, so the comparison is not circular)
  // must also find the instance infeasible.
  cfg.enable_static_prover = false;
  try {
    const OptimizedPlan plan = optimize(*in.tree, *in.model, cfg);
    return fail("prover certified infeasibility (" + cert->str() +
                ") but the DP found a plan using " +
                std::to_string(plan.bytes_per_node()) + " bytes/node");
  } catch (const InfeasibleError&) {
  }

  // So must exhaustive enumeration, below its cap.
  const BruteResult br = brute_force(*in.tree, *in.model, cfg);
  if (br.skipped) return pass();
  if (!br.root.empty()) {
    return fail("prover certified infeasibility (" + cert->str() +
                ") but brute force found " +
                std::to_string(br.root.size()) + " feasible solutions");
  }
  return pass();
}

OracleOutcome oracle_commlb(const OracleInput& in) {
  const OptimizerConfig cfg = config_of(*in.inst);
  const std::uint64_t lb =
      lint::prove_comm(*in.tree, in.model->grid(), comm_config_of(cfg))
          .root_lb_words;

  bool checked = false;

  // The DP plan: the stamped stats must match independent recomputation
  // and the certified bound must hold.
  if (const auto plan = try_optimize(in)) {
    checked = true;
    if (plan->stats.comm_lb_words != lb) {
      return fail("stamped comm_lb_words " +
                  std::to_string(plan->stats.comm_lb_words) +
                  " != recomputed certificate " + std::to_string(lb));
    }
    const std::uint64_t achieved =
        lint::plan_comm_words(*in.tree, *plan, in.model->grid());
    if (plan->stats.achieved_comm_words != achieved) {
      return fail("stamped achieved_comm_words " +
                  std::to_string(plan->stats.achieved_comm_words) +
                  " != recomputed " + std::to_string(achieved));
    }
    if (lb > achieved) {
      return fail("UNSOUND: certified comm LB " + std::to_string(lb) +
                  " words/proc exceeds the DP plan's achieved " +
                  std::to_string(achieved));
    }
  }

  // Every exhaustive root solution, below brute force's cap.
  const BruteResult br = brute_force(*in.tree, *in.model, cfg);
  if (!br.skipped) {
    for (const BruteSol& s : br.root) {
      checked = true;
      if (lb > s.fp.comm_words) {
        return fail("UNSOUND: certified comm LB " + std::to_string(lb) +
                    " words/proc exceeds a brute-force plan's achieved " +
                    std::to_string(s.fp.comm_words));
      }
    }
  }

  if (!checked) {
    return skip("no feasible plan to compare the certificate against");
  }
  return pass();
}

OracleOutcome run_oracle(const std::string& name, const OracleInput& in) {
  if (name == "brute") return oracle_brute(in);
  if (name == "threads") return oracle_threads(in);
  if (name == "verify") return oracle_verify(in);
  if (name == "simnet") return oracle_simnet(in);
  if (name == "exec") return oracle_exec(in);
  if (name == "lint") return oracle_lint(in);
  if (name == "commlb") return oracle_commlb(in);
  TCE_UNREACHABLE("unknown oracle name");
}

}  // namespace tce::fuzz
