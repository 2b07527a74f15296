/// \file plan_cc.cpp
/// Workload plan-cc: cold planning of a seeded coupled-cluster corpus.
/// One op is what `tcemin plan --verify --json` does for one problem,
/// preceded by the lint provers the serving path uses for admission:
/// parse → (opmin) → prove_memory/prove_comm → optimize → plan JSON
/// round trip → verify_plan.  Models are characterized in set-up.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "corpus.hpp"
#include "tce/common/error.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/lint/lint.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/opmin/opmin.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using tce::CharacterizedModel;
using tce::OptimizedPlan;

/// Planner threads per search: fixed, never "all hardware threads".
constexpr unsigned kPlannerThreads = 1;

struct PlanCase {
  Problem problem;
  std::shared_ptr<const CharacterizedModel> model;
  std::string expected_json;  ///< Set-up reference (wall fields zeroed).
  double comm_s = 0;          ///< The reference plan's predicted comm.
};

struct PlanSetup {
  std::vector<PlanCase> cases;
  double characterize_s = 0;
};

/// What one op produced, for the check.
struct OpOutput {
  OptimizedPlan plan;
  std::string json;
  tce::VerifyReport report;
};

tce::OptimizerConfig config_of(const Problem& p) {
  tce::OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = p.mem_limit_node_bytes;
  cfg.enable_replication_template = p.replication;
  cfg.liveness_aware = p.liveness;
  cfg.threads = kPlannerThreads;
  return cfg;
}

/// Times one stage into \p stages when tracing (null = untraced).
class StageClock {
 public:
  explicit StageClock(StageTable* stages)
      : stages_(stages), last_(stages ? now_s() : 0) {}
  void lap(const char* stage) {
    if (stages_ == nullptr) return;
    const double t = now_s();
    stages_->add(stage, t - last_);
    last_ = t;
  }

 private:
  StageTable* stages_;
  double last_;
};

/// One plan-cc op.  Throws tce::Error (InfeasibleError included) when a
/// layer rejects the problem.
OpOutput plan_op(const PlanCase& c, StageTable* stages,
                 std::vector<double>* node_walls) {
  const Problem& p = c.problem;
  StageClock clock(stages);
  const tce::ParsedProgram program = tce::parse_program(p.text);
  clock.lap("expr.parse_s");
  const tce::ContractionTree tree = tce::ContractionTree::from_sequence(
      p.opmin ? tce::binarize_program(program)
              : tce::to_formula_sequence(program));
  clock.lap("opmin.binarize_s");

  const tce::OptimizerConfig cfg = config_of(p);
  const tce::ProcGrid& grid = c.model->grid();
  if (p.mem_limit_node_bytes > 0) {
    tce::lint::LintConfig lcfg;
    lcfg.mem_limit_node_bytes = p.mem_limit_node_bytes;
    lcfg.liveness_aware = p.liveness;
    if (auto cert = tce::lint::prove_infeasible(tree, grid, lcfg)) {
      throw tce::InfeasibleError("rejected by the prover: " + cert->str());
    }
  }
  tce::lint::CommBoundConfig ccfg;
  ccfg.mem_limit_node_bytes = p.mem_limit_node_bytes;
  ccfg.enable_replication = p.replication;
  const std::uint64_t comm_lb =
      tce::lint::prove_comm(tree, grid, ccfg).root_lb_words;
  clock.lap("lint.prove_s");

  OpOutput out;
  out.plan = tce::optimize(tree, *c.model, cfg);
  if (stages != nullptr) {
    // The DP search proper is a child of optimize(); its own wall time
    // (OptimizerStats) splits optimize into search and the rest.
    const double search = out.plan.stats.search_wall_s;
    clock.lap("core.optimize_s");
    stages->add("core.optimize_s", -search);
    stages->add("core.search_wall_s", search);
    for (const auto& n : out.plan.stats.nodes) node_walls->push_back(n.wall_s);
  }
  if (out.plan.stats.comm_lb_words != comm_lb) {
    throw tce::Error("optimizer and lint disagree on the comm lower bound");
  }
  // Wall-clock stats are the only nondeterministic bytes of a plan
  // document; zero them (as the daemon does) so ops compare exactly.
  out.plan.stats.search_wall_s = 0;
  for (auto& n : out.plan.stats.nodes) n.wall_s = 0;
  out.json = tce::plan_to_json(out.plan, tree.space());
  const OptimizedPlan reread = tce::plan_from_json(out.json, tree);
  clock.lap("core.plan_json_s");

  tce::VerifyOptions vopts;
  vopts.mem_limit_node_bytes = p.mem_limit_node_bytes;
  out.report = tce::verify_plan(tree, *c.model, reread, vopts);
  clock.lap("verify.s");
  return out;
}

PlanSetup build_setup(std::uint64_t seed) {
  PlanSetup s;
  std::map<std::uint32_t, std::shared_ptr<const CharacterizedModel>> models;
  const double t0 = now_s();
  for (std::uint32_t procs : {16u, 64u, 256u}) {
    models[procs] = std::make_shared<const CharacterizedModel>(
        tce::characterize_itanium(procs));
  }
  s.characterize_s = now_s() - t0;

  for (Problem& p : plan_corpus(seed)) {
    PlanCase c{std::move(p), nullptr, {}, 0};
    c.model = models.at(c.problem.procs);
    // Raise a first-guess limit until the problem is feasible, so no
    // timed op is expected to fail.
    for (int attempt = 0;; ++attempt) {
      try {
        OpOutput ref = plan_op(c, nullptr, nullptr);
        c.expected_json = std::move(ref.json);
        c.comm_s = ref.plan.total_comm_s;
        break;
      } catch (const tce::InfeasibleError&) {
        if (c.problem.verbatim || attempt == 8) throw;
        c.problem.mem_limit_node_bytes =
            c.problem.mem_limit_node_bytes / 2 * 3;
      }
    }
    s.cases.push_back(std::move(c));
  }
  return s;
}

struct Pinned {
  const char* label;
  double comm_s;
  double runtime_s;
  std::uint64_t mem_per_node_bytes;
  std::uint64_t buffer_per_node_bytes;
  std::uint64_t comm_lb_words;
  std::uint64_t achieved_comm_words;
  double comm_gap_ratio;
  std::uint64_t verifier_rules_checked;
};

/// The deterministic fields of BENCH_table1.json / BENCH_table2.json.
constexpr Pinned kPinned[] = {
    {"paper-table1", 97.277487805621377, 1408.3863904609186, 2087976960,
     117964800, 139345920, 139345920, 1.0, 73},
    {"paper-table2", 2243.2966709541874, 7486.0534492759471, 1384611840,
     235929600, 238878720, 2760376320, 11.555555555555555, 73},
};

}  // namespace

std::string check_plan(const std::string& label, const std::string& json,
                       const std::string& expected_json,
                       const tce::OptimizedPlan& plan,
                       const tce::VerifyReport& report) {
  if (!report.ok()) {
    return label + ": verifier found " +
           std::to_string(report.diagnostics.size()) + " diagnostics";
  }
  if (json != expected_json) {
    return label + ": plan JSON differs from the set-up reference";
  }
  for (const Pinned& pin : kPinned) {
    if (label != pin.label) continue;
    if (plan.total_comm_s != pin.comm_s ||
        plan.total_runtime_s() != pin.runtime_s ||
        plan.bytes_per_node() != pin.mem_per_node_bytes ||
        plan.buffer_bytes_per_node() != pin.buffer_per_node_bytes ||
        plan.stats.comm_lb_words != pin.comm_lb_words ||
        plan.stats.achieved_comm_words != pin.achieved_comm_words ||
        plan.stats.comm_gap_ratio != pin.comm_gap_ratio ||
        report.rules_checked != pin.verifier_rules_checked) {
      return label + ": does not reproduce the pinned paper table fields";
    }
  }
  return std::string();
}

WorkloadResult run_plan_cc(const RunOptions& opts) {
  WorkloadResult r;
  std::vector<double> setup_times;
  PlanSetup setup;
  for (int i = 0; i < opts.setup_repeats; ++i) {
    const double t0 = now_s();
    setup = build_setup(opts.seed);
    setup_times.push_back(now_s() - t0);
  }
  const std::size_t n = setup.cases.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  tce::Rng rng(opts.seed);
  std::shuffle(order.begin(), order.end(), rng.engine());

  std::size_t next = 0;
  std::uint64_t json_bytes = 0, rules_checked = 0;
  // Runs ops until \p seconds pass; returns them and the start time.
  const auto run_window = [&](double seconds, StageTable* stages,
                              std::vector<double>* node_walls) {
    std::vector<OpSample> ops;
    const double start = now_s();
    while (now_s() - start < seconds) {
      const std::size_t ci = order[next++ % n];
      const PlanCase& c = setup.cases[ci];
      const int cls = static_cast<int>(ci);
      const double t0 = now_s();
      std::string err;
      try {
        const OpOutput out = plan_op(c, stages, node_walls);
        const double t1 = now_s();
        ops.push_back({t1, (t1 - t0) * 1e3, cls});
        err = check_plan(c.problem.label, out.json, c.expected_json,
                         out.plan, out.report);
        if (stages != nullptr) {
          stages->add("check_s", now_s() - t1);
          json_bytes += out.json.size();
          rules_checked += out.report.rules_checked;
        }
      } catch (const std::exception& e) {
        const double t1 = now_s();
        ops.push_back({t1, (t1 - t0) * 1e3, cls});
        err = c.problem.label + ": " + e.what();
      }
      ++r.attempted;
      if (!err.empty()) r.fail(err);
    }
    return std::make_pair(ops, start);
  };

  double comm_total = 0;
  for (const PlanCase& c : setup.cases) comm_total += c.comm_s;
  r.settings["planner_threads"] = std::to_string(kPlannerThreads);
  r.settings["problems"] = std::to_string(n);
  r.settings["procs"] = "16,64,256";

  if (!opts.trace) {
    const auto [ops, start] = run_window(opts.seconds, nullptr, nullptr);
    set_end_to_end(r, ops, start, now_s() - start, median(setup_times));
    return r;
  }

  // Traced: the first half runs untraced as the overhead baseline, the
  // second with the registry and the stage timers on.
  const std::vector<OpSample> plain =
      run_window(opts.seconds / 2, nullptr, nullptr).first;
  tce::obs::metrics_reset();
  tce::obs::metrics_enable(true);
  StageTable stages;
  std::vector<double> node_walls;
  const double cpu0 = cpu_seconds();
  const auto [traced, start] =
      run_window(opts.seconds / 2, &stages, &node_walls);
  const double window = now_s() - start;
  const double cpu_s = cpu_seconds() - cpu0;
  tce::obs::metrics_enable(false);

  const double ops = static_cast<double>(traced.size());
  set_registry_metrics(r, ops);
  std::sort(node_walls.begin(), node_walls.end());
  r.set("opt.node_wall_s.p50", quantile(node_walls, 0.5), "s");
  r.set("opt.node_wall_s.p99", quantile(node_walls, 0.99), "s");
  r.set("expr.parse_calls", ops, "count");
  r.set("core.plan_comm_s", comm_total, "sim_s");
  r.set("core.plan_json_bytes", static_cast<double>(json_bytes) / ops,
        "bytes/op");
  r.set("verify.rules_checked", static_cast<double>(rules_checked) / ops,
        "count/op");
  r.set("costmodel.characterize_s", setup.characterize_s, "s");
  finish_traced(r, stages, "plan-cc stage table (traced half)", window,
                cpu_s / window, plain, traced);
  return r;
}

}  // namespace perfbench
