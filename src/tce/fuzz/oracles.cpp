#include "tce/fuzz/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tce/cannon/executor.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/lint/lint.hpp"
#include "tce/simnet/spec.hpp"
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

/// \p plan's JSON with the search-effort record (counters and wall
/// times) zeroed: the plan's decisions and totals only.
std::string decisions_json(OptimizedPlan plan, const IndexSpace& space) {
  OptimizerStats& st = plan.stats;
  st.candidates = st.infeasible = st.dominated = st.bounded = st.kept = 0;
  st.max_per_node = st.redistributions = 0;
  st.table_lookups = st.extrapolations = 0;
  st.search_wall_s = 0;
  for (NodeSearchStats& n : st.nodes) n = {n.node, n.result_name};
  return plan_to_json(plan, space);
}

std::unique_ptr<MachineModel> model_of(const FuzzInstance& inst,
                                       TableCache& tables) {
  if (!inst.characterized) {
    return std::make_unique<AnalyticModel>(analytic_model_of(inst));
  }
  const auto key = std::make_pair(inst.procs, inst.procs_per_node);
  auto it = tables.find(key);
  if (it == tables.end()) {
    it = tables.emplace(key, characterize_itanium(key.first, key.second))
             .first;
  }
  return std::make_unique<CharacterizedModel>(it->second);
}

}  // namespace

OracleContext::OracleContext(FuzzInstance inst, TableCache& tables)
    : inst_(std::move(inst)),
      tree_(build_tree(inst_)),
      net_(ClusterSpec::itanium2003(inst_.procs / inst_.procs_per_node,
                                    inst_.procs_per_node)),
      model_(model_of(inst_, tables)) {}

const std::optional<OptimizedPlan>& OracleContext::plan() {
  if (!plan_) {
    try {
      plan_ = optimize(tree_, *model_, config_of(inst_));
    } catch (const InfeasibleError&) {
      plan_.emplace();
    }
  }
  return *plan_;
}

const std::vector<OptimizedPlan>& OracleContext::frontier() {
  if (!frontier_) {
    try {
      frontier_ = optimize_frontier(tree_, *model_, config_of(inst_));
    } catch (const InfeasibleError&) {
      frontier_.emplace();
    }
  }
  return *frontier_;
}

const BruteResult& OracleContext::brute() {
  if (!brute_) brute_ = brute_force(tree_, *model_, config_of(inst_));
  return *brute_;
}

namespace {

OracleOutcome oracle_brute(OracleContext& ctx) {
  // optimize() solves the root for its cheapest plan alone; it must
  // return the frontier's first plan, bit for bit.  That needs no
  // enumeration, so it runs above brute force's cap too.
  const std::vector<OptimizedPlan>& frontier = ctx.frontier();
  const bool infeasible = frontier.empty();
  if (!infeasible) {
    const auto& plan = ctx.plan();
    if (!plan) return fail("optimize found no plan; the frontier did");
    const OptimizedPlan& best = *plan;
    if (best.total_comm_s != frontier.front().total_comm_s) {
      return fail("optimize cost " + json::number(best.total_comm_s) +
                  " differs from the frontier's first plan, " +
                  json::number(frontier.front().total_comm_s));
    }
    if (decisions_json(best, ctx.tree().space()) !=
        decisions_json(frontier.front(), ctx.tree().space())) {
      return fail("optimize picked another plan than the frontier's first");
    }
  }

  const BruteResult& br = ctx.brute();
  if (br.skipped) return skip("search space above brute-force cap");
  if (infeasible != br.root.empty()) {
    return fail(std::string("feasibility disagreement: DP says ") +
                (infeasible ? "infeasible" : "feasible") +
                ", brute force says " +
                (br.root.empty() ? "infeasible" : "feasible"));
  }
  if (infeasible) return pass();

  const bool lv = ctx.inst().liveness;
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

OracleOutcome oracle_threads(OracleContext& ctx) {
  // Wall times are the one documented nondeterminism in a plan; blank
  // them so the comparison covers every decision-carrying field.
  const auto stamp = [&](OptimizedPlan p) {
    p.stats.search_wall_s = 0;
    for (NodeSearchStats& n : p.stats.nodes) n.wall_s = 0;
    return plan_to_json(p, ctx.tree().space());
  };
  std::optional<std::string> one, eight;
  if (const auto& p = ctx.plan()) one = stamp(*p);
  try {
    eight =
        stamp(optimize(ctx.tree(), ctx.model(), config_of(ctx.inst(), 8)));
  } catch (const InfeasibleError&) {
  }
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

OracleOutcome oracle_verify(OracleContext& ctx) {
  const auto& plan = ctx.plan();
  if (!plan) return skip("infeasible under the memory limit");
  const ContractionTree& tree = ctx.tree();
  VerifyOptions vo;
  vo.mem_limit_node_bytes = ctx.inst().mem_limit_node_bytes;
  const VerifyReport report = verify_plan(tree, ctx.model(), *plan, vo);
  if (!report.ok()) return fail(report.str(tree));

  const std::string json = plan_to_json(*plan, tree.space());
  OptimizedPlan back;
  try {
    back = plan_from_json(json, tree);
  } catch (const Error& e) {
    return fail(std::string("plan JSON does not parse back: ") + e.what());
  }
  if (!close(back.total_comm_s, plan->total_comm_s) ||
      back.array_bytes_per_proc != plan->array_bytes_per_proc ||
      back.max_msg_bytes_per_proc != plan->max_msg_bytes_per_proc ||
      back.peak_live_bytes_per_proc != plan->peak_live_bytes_per_proc) {
    return fail("JSON round trip changed the plan totals");
  }
  const VerifyReport again = verify_plan(tree, ctx.model(), back, vo);
  if (!again.ok()) {
    return fail("plan fails verification after JSON round trip:\n" +
                again.str(tree));
  }
  return pass();
}

OracleOutcome oracle_simnet(OracleContext& ctx) {
  if (!ctx.inst().characterized) {
    return skip("analytic model has no reference network");
  }
  const auto& plan = ctx.plan();
  if (!plan) return skip("infeasible under the memory limit");
  double pred = 0;
  for (const PlanStep& s : plan->steps) {
    pred += s.rot_left_s + s.rot_right_s + s.rot_result_s;
  }
  // The model prices each rotating array alone (the additive RotateCost
  // measure_rotation characterized), so the prediction is checked
  // against the serialized replay.  Sharing the network can only help.
  const ProcGrid& grid = ctx.model().grid();
  const double sim = simulate_plan_comm(ctx.net(), grid, ctx.tree(), *plan,
                                        ReplayMode::kSerialized);
  const double concurrent =
      simulate_plan_comm(ctx.net(), grid, ctx.tree(), *plan);
  if (concurrent > sim) {
    return fail("concurrent replay " + std::to_string(concurrent) +
                " s is slower than the serialized replay " +
                std::to_string(sim) + " s");
  }
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
                " s vs serialized replay " + std::to_string(sim) +
                " s (relative error " + std::to_string(rel) +
                ", tolerance " + std::to_string(tol) + ")");
  }
  return pass();
}

OracleOutcome oracle_exec(OracleContext& ctx) {
  const auto& plan = ctx.plan();
  if (!plan) return skip("infeasible under the memory limit");

  const ContractionTree& tree = ctx.tree();
  const ProcGrid& grid = ctx.model().grid();
  for (const auto& [name, extent] : ctx.inst().indices) {
    if (extent % grid.edge != 0) {
      return skip("extents not divisible by the grid edge");
    }
  }
  for (const PlanStep& s : plan->steps) {
    if (s.tmpl == StepTemplate::kCannon &&
        (s.choice.i == kNoIndex || s.choice.j == kNoIndex ||
         s.choice.k == kNoIndex)) {
      return skip("plan has a partial Cannon triplet");
    }
  }

  Rng rng(ctx.inst().seed ^ 0xE45C0DEDULL);
  const auto inputs = make_random_inputs(tree, rng);
  // The ground truth is the reference loop nest, pinned explicitly so
  // the oracle never compares the tiled kernel against itself; the
  // executor then runs under *both* kernels, which differentially
  // exercises the TTGT lowering and the tiled GEMM on every fuzzed
  // shape.
  DenseTensor want = [&] {
    ScopedKernelConfig force_ref(KernelKind::kReference);
    return evaluate_tree(tree, inputs);
  }();

  double scale = 1.0;
  for (double v : want.data()) scale = std::max(scale, std::abs(v));
  for (const KernelKind kind :
       {KernelKind::kReference, KernelKind::kTiled}) {
    ScopedKernelConfig force(kind);
    const TreeRunResult got = run_plan(ctx.net(), grid, tree, *plan, inputs);
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

OracleOutcome oracle_lint(OracleContext& ctx) {
  if (ctx.inst().mem_limit_node_bytes == 0) {
    return skip("no memory limit; nothing for the prover to certify");
  }
  OptimizerConfig cfg = config_of(ctx.inst());
  const std::optional<lint::InfeasibilityCertificate> cert =
      lint::prove_infeasible(ctx.tree(), ctx.model().grid(),
                             lint_config_of(cfg));
  // Prover silence is not a feasibility claim — only a certificate is
  // checkable.
  if (!cert) return pass();

  // The raw DP (fast path disabled, so the comparison is not circular)
  // must also find the instance infeasible.
  cfg.enable_static_prover = false;
  try {
    const OptimizedPlan plan = optimize(ctx.tree(), ctx.model(), cfg);
    return fail("prover certified infeasibility (" + cert->str() +
                ") but the DP found a plan using " +
                std::to_string(plan.bytes_per_node()) + " bytes/node");
  } catch (const InfeasibleError&) {
  }

  // So must exhaustive enumeration, below its cap.
  const BruteResult& br = ctx.brute();
  if (br.skipped) return pass();
  if (!br.root.empty()) {
    return fail("prover certified infeasibility (" + cert->str() +
                ") but brute force found " +
                std::to_string(br.root.size()) + " feasible solutions");
  }
  return pass();
}

OracleOutcome oracle_commlb(OracleContext& ctx) {
  const std::uint64_t lb =
      lint::prove_comm(ctx.tree(), ctx.model().grid(),
                       comm_config_of(config_of(ctx.inst())))
          .root_lb_words;

  bool checked = false;

  // The DP plan: the stamped certificate must match the prover's and
  // hold against the stamped words (which the verify oracle holds equal
  // to the verifier's independent recount).
  if (const auto& plan = ctx.plan()) {
    checked = true;
    if (plan->stats.comm_lb_words != lb) {
      return fail("stamped comm_lb_words " +
                  std::to_string(plan->stats.comm_lb_words) +
                  " != recomputed certificate " + std::to_string(lb));
    }
    const std::uint64_t achieved = plan->stats.achieved_comm_words;
    if (lb > achieved) {
      return fail("UNSOUND: certified comm LB " + std::to_string(lb) +
                  " words/proc exceeds the DP plan's achieved " +
                  std::to_string(achieved));
    }
  }

  // Every exhaustive root solution, below brute force's cap.
  const BruteResult& br = ctx.brute();
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

}  // namespace

const std::vector<Oracle>& oracles() {
  static const std::vector<Oracle> table = {
      {"brute", oracle_brute},   {"threads", oracle_threads},
      {"verify", oracle_verify}, {"simnet", oracle_simnet},
      {"exec", oracle_exec},     {"lint", oracle_lint},
      {"commlb", oracle_commlb}};
  return table;
}

}  // namespace tce::fuzz
