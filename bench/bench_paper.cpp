// The paper's evaluation, one scenario per run:
//
//   bench_paper <scenario> [--threads N] [--json F] [--metrics F]
//
// Tables 1–2, the §4 processor-count and memory-limit sweeps, the
// §2/§3.2 strategy comparison, the §3.3 pruning claim and two extension
// ablations, all on the paper's §4 workload and the simulated Itanium
// cluster.  Each scenario prints its table; with --json it also writes a
// tce-bench/1 document whose `bench` is the scenario name.  Planner rows
// carry `threads`, the measured `opt_wall_ms` and the run's p50/p99
// search latency (docs/FORMATS.md).

#include <optional>
#include <string_view>
#include <vector>

#include "tce/common/checked.hpp"
#include "tce/common/table.hpp"
#include "tce/fusion/memmin.hpp"
#include "tce/opmin/opmin.hpp"
#include "tce/verify/verifier.hpp"

#include "bench_common.hpp"

namespace {

using namespace tce;
using namespace tce::bench;

/// What every scenario gets from the command line.
struct Run {
  unsigned threads = 0;  ///< Planner threads (0 = all hardware threads).
  BenchOutput& out;
};

/// The configuration every scenario starts from: a per-node memory limit
/// (0 = unlimited) at the run's thread count.
OptimizerConfig config(const Run& run, std::uint64_t limit) {
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = limit;
  cfg.threads = run.threads;
  return cfg;
}

/// One timed optimize() call; `plan` is empty when no plan fits.
struct Attempt {
  std::optional<OptimizedPlan> plan;
  double wall_ms = 0;
};

Attempt attempt(const ContractionTree& tree, const MachineModel& model,
                const OptimizerConfig& cfg) {
  const Stopwatch sw;
  try {
    OptimizedPlan plan = optimize(tree, model, cfg);
    return {std::move(plan), sw.elapsed_s() * 1000};
  } catch (const InfeasibleError&) {
    return {std::nullopt, sw.elapsed_s() * 1000};
  }
}

/// The plan of a configuration the scenario needs to fit.
const OptimizedPlan& feasible(const Attempt& a) {
  if (!a.plan.has_value()) {
    std::fprintf(stderr, "error: no plan fits the memory limit\n");
    std::exit(1);
  }
  return *a.plan;
}

/// The plan's fused loops per step, e.g. "T1:{b} T2:{b}", or "none".
std::string fused_loops(const OptimizedPlan& plan, const IndexSpace& space) {
  std::string fused;
  for (const PlanStep& s : plan.steps) {
    if (s.fusion.empty()) continue;
    if (!fused.empty()) fused += " ";
    fused += s.result_name + ":" + s.fusion.str(space);
  }
  return fused.empty() ? std::string("none") : fused;
}

std::uint64_t gb_bytes(double gb) {
  return static_cast<std::uint64_t>(gb * 1e9);
}

std::string limit_label(double gb) {
  return gb == 0.0 ? std::string("unlimited") : fixed(gb, 1) + " GB";
}

/// The fields every limit-sweep row starts with.
json::ObjectWriter limit_fields(const Run& run, double gb) {
  json::ObjectWriter fields;
  fields.field("mem_limit_bytes", gb_bytes(gb)).field("threads", run.threads);
  return fields;
}

/// Tables 1 and 2: the plan at 4 GB/node, printed like the paper's
/// tables, checked by the verifier, and stamped with the communication
/// certificate.
int paper_table(const Run& run, std::uint32_t procs, const char* label,
                const char* reference) {
  ContractionTree tree = paper_tree();
  std::printf("characterizing the simulated cluster (%u procs)...\n", procs);
  CharacterizedModel model(characterize_itanium(procs));
  const OptimizerConfig cfg = config(run, kNodeLimit4GB);
  const Attempt a = attempt(tree, model, cfg);
  const OptimizedPlan& plan = feasible(a);

  std::printf("\n%s\n", plan.table(tree.space()).c_str());
  std::printf("%s\n", plan.summary(tree.space()).c_str());
  std::printf("paper reference: %s\n", reference);
  std::printf("measured:        comm %s s (%s%% of %s s), mem %s/node + "
              "%s buffer\n",
              fixed(plan.total_comm_s, 1).c_str(),
              fixed(100 * plan.comm_fraction(), 1).c_str(),
              fixed(plan.total_runtime_s(), 1).c_str(),
              format_bytes_paper(plan.bytes_per_node()).c_str(),
              format_bytes_paper(plan.buffer_bytes_per_node()).c_str());

  VerifyOptions vopts;
  vopts.mem_limit_node_bytes = cfg.mem_limit_node_bytes;
  const VerifyReport report = verify_plan(tree, model, plan, vopts);
  std::printf("verifier:        %llu rules checked, %zu diagnostics\n",
              static_cast<unsigned long long>(report.rules_checked),
              report.diagnostics.size());
  if (!report.ok()) {
    std::printf("%s", report.str(tree).c_str());
    return 1;
  }

  run.out.planner_row(
      json::ObjectWriter()
          .field("scenario", label)
          .field("procs", procs)
          .field("mem_limit_bytes", kNodeLimit4GB)
          .field("comm_s", plan.total_comm_s)
          .field("runtime_s", plan.total_runtime_s())
          .field("comm_fraction", plan.comm_fraction())
          .field("mem_per_node_bytes", plan.bytes_per_node())
          .field("buffer_per_node_bytes", plan.buffer_bytes_per_node())
          .field("verifier_rules_checked", report.rules_checked)
          .field("comm_lb_words", plan.stats.comm_lb_words)
          .field("achieved_comm_words", plan.stats.achieved_comm_words)
          .field("comm_gap_ratio", plan.stats.comm_gap_ratio)
          .field("opt_wall_ms", a.wall_ms)
          .field("threads", run.threads));
  return 0;
}

/// §4's "counter-intuitive trend": at a fixed problem and per-node
/// limit, fewer processors force more fusion and more communication.
int procsweep(const Run& run) {
  TextTable table({"procs", "nodes", "fused loops", "comm (s)",
                   "runtime (s)", "comm %", "mem/node"});
  for (std::size_t c = 1; c < 7; ++c) table.set_right_aligned(c);
  for (std::uint32_t procs : {16u, 64u, 256u}) {
    ContractionTree tree = paper_tree();
    CharacterizedModel model(characterize_itanium(procs));
    const Attempt a = attempt(tree, model, config(run, kNodeLimit4GB));
    const OptimizedPlan& plan = feasible(a);
    const std::string fused = fused_loops(plan, tree.space());
    table.add_row({std::to_string(procs),
                   std::to_string(model.grid().nodes()), fused,
                   fixed(plan.total_comm_s, 1),
                   fixed(plan.total_runtime_s(), 1),
                   fixed(100 * plan.comm_fraction(), 1),
                   format_bytes_paper(plan.bytes_per_node())});
    run.out.planner_row(json::ObjectWriter()
                            .field("procs", procs)
                            .field("nodes", model.grid().nodes())
                            .field("fused", fused)
                            .field("comm_s", plan.total_comm_s)
                            .field("runtime_s", plan.total_runtime_s())
                            .field("comm_fraction", plan.comm_fraction())
                            .field("mem_per_node_bytes", plan.bytes_per_node())
                            .field("opt_wall_ms", a.wall_ms)
                            .field("threads", run.threads));
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

/// Ablation: the staircase of fusion configurations the optimizer is
/// forced through as the per-node limit tightens at P = 16 (the paper
/// discusses only the endpoints).
int memsweep(const Run& run) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  TextTable table({"limit/node", "feasible", "fused loops", "comm (s)",
                   "comm %", "mem/node"});
  for (std::size_t c = 3; c < 6; ++c) table.set_right_aligned(c);
  for (double gb : {0.8, 1.0, 1.2, 1.6, 2.0, 3.0, 4.0, 6.0, 9.0, 12.0,
                    16.0, 0.0}) {
    const Attempt a = attempt(tree, model, config(run, gb_bytes(gb)));
    json::ObjectWriter fields = limit_fields(run, gb);
    fields.field("opt_wall_ms", a.wall_ms)
        .field("feasible", a.plan.has_value());
    if (a.plan.has_value()) {
      const std::string fused = fused_loops(*a.plan, tree.space());
      table.add_row({limit_label(gb), "yes", fused,
                     fixed(a.plan->total_comm_s, 1),
                     fixed(100 * a.plan->comm_fraction(), 1),
                     format_bytes_paper(a.plan->bytes_per_node())});
      fields.field("fused", fused)
          .field("comm_s", a.plan->total_comm_s)
          .field("comm_fraction", a.plan->comm_fraction())
          .field("mem_per_node_bytes", a.plan->bytes_per_node());
    } else {
      table.add_row({limit_label(gb), "NO", "-", "-", "-", "-"});
    }
    run.out.planner_row(fields);
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

/// Extension ablation: the paper's summed memory accounting (every array
/// counted for the whole run) against liveness-aware accounting (inputs
/// resident, intermediates freed after their consumer).
int liveness(const Run& run) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  TextTable table({"limit/node", "summed: comm (s)", "summed: fused",
                   "live: comm (s)", "live: fused", "live peak/node"});
  table.set_right_aligned(1);
  table.set_right_aligned(3);
  for (double gb : {0.9, 1.0, 1.1, 1.3, 1.6, 2.0, 4.0, 9.0}) {
    OptimizerConfig cfg = config(run, gb_bytes(gb));
    const Attempt summed = attempt(tree, model, cfg);
    cfg.liveness_aware = true;
    const Attempt live = attempt(tree, model, cfg);

    std::vector<std::string> row{limit_label(gb)};
    json::ObjectWriter fields = limit_fields(run, gb);
    fields.field("summed_feasible", summed.plan.has_value());
    if (summed.plan.has_value()) {
      const std::string fused = fused_loops(*summed.plan, tree.space());
      row.insert(row.end(), {fixed(summed.plan->total_comm_s, 1), fused});
      fields.field("summed_comm_s", summed.plan->total_comm_s)
          .field("summed_fused", fused);
    } else {
      row.insert(row.end(), {"-", "INFEASIBLE"});
    }
    fields.field("live_feasible", live.plan.has_value());
    if (live.plan.has_value()) {
      const OptimizedPlan& p = *live.plan;
      const std::string fused = fused_loops(p, tree.space());
      const std::uint64_t peak_node_bytes =
          checked_mul(p.peak_live_bytes_per_proc, p.procs_per_node);
      row.insert(row.end(), {fixed(p.total_comm_s, 1), fused,
                             format_bytes_paper(peak_node_bytes)});
      fields.field("live_comm_s", p.total_comm_s)
          .field("live_fused", fused)
          .field("live_peak_node_bytes", peak_node_bytes);
    } else {
      row.insert(row.end(), {"-", "INFEASIBLE", "-"});
    }
    // Both planner invocations of this row.
    fields.field("opt_wall_ms", summed.wall_ms + live.wall_ms);
    run.out.planner_row(fields);
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

/// Extension ablation: Cannon against replicate–compute–reduce.  Cannon
/// rotates the huge reduced T1 once per fused iteration; replicating the
/// tiny C and B slices keeps T1 stationary and pays only an allgather
/// plus one hoistable reduce-scatter.
int templates(const Run& run) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  TextTable table({"limit/node", "cannon only (s)", "with replication (s)",
                   "speedup", "templates used"});
  for (std::size_t c = 1; c < 4; ++c) table.set_right_aligned(c);
  for (double gb : {1.2, 2.0, 4.0, 9.0, 0.0}) {
    OptimizerConfig cfg = config(run, gb_bytes(gb));
    const Attempt cannon = attempt(tree, model, cfg);
    cfg.enable_replication_template = true;
    const Attempt repl = attempt(tree, model, cfg);

    json::ObjectWriter fields = limit_fields(run, gb);
    std::string cannon_s = "INFEASIBLE", repl_s = "INFEASIBLE";
    std::string speedup = "-", used = "-";
    if (cannon.plan.has_value()) {
      cannon_s = fixed(cannon.plan->total_comm_s, 1);
      fields.field("cannon_comm_s", cannon.plan->total_comm_s);
    }
    fields.field("cannon_feasible", cannon.plan.has_value())
        .field("replication_feasible", repl.plan.has_value());
    if (repl.plan.has_value()) {
      const OptimizedPlan& p = *repl.plan;
      repl_s = fixed(p.total_comm_s, 1);
      if (cannon.plan.has_value()) {
        speedup = fixed(cannon.plan->total_comm_s / p.total_comm_s, 2) + "x";
      }
      used = "";
      for (const PlanStep& s : p.steps) {
        if (!used.empty()) used += " ";
        used += s.result_name;
        used += s.tmpl == StepTemplate::kReplicated ? ":repl" : ":cannon";
      }
      fields.field("replication_comm_s", p.total_comm_s)
          .field("templates", used);
    }
    // Both planner invocations of this row.
    fields.field("opt_wall_ms", cannon.wall_ms + repl.wall_ms);
    run.out.planner_row(fields);
    table.add_row({limit_label(gb), cannon_s, repl_s, speedup, used});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

/// §2/§3.2's motivation: the integrated DP against both two-phase
/// strategies ("distribute, then fuse" and "fuse for minimal memory, then
/// distribute") at 4 GB/node and P = 16, plus two reference points.
int baselines(const Run& run) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  TextTable table({"strategy", "feasible", "comm (s)", "vs integrated"});
  table.set_right_aligned(2);
  table.set_right_aligned(3);

  // Distribute first: the comm-optimal plan is unfused, so under the
  // limit nothing is left to shrink.  Fuse first: memory-minimal fusion
  // collapses every intermediate and leaves nothing to distribute.
  OptimizerConfig distribute_first = config(run, kNodeLimit4GB);
  distribute_first.enable_fusion = false;
  OptimizerConfig fuse_first = config(run, kNodeLimit4GB);
  fuse_first.fixed_fusions = minimize_memory(tree).fusions;
  OptimizerConfig no_redistribution = config(run, kNodeLimit4GB);
  no_redistribution.enable_redistribution = false;
  const struct {
    const char* key;
    const char* label;
    OptimizerConfig cfg;
  } strategies[] = {
      {"integrated", "integrated fusion+distribution DP (this paper)",
       config(run, kNodeLimit4GB)},
      {"distribute_first", "distribute first, no fusion available",
       distribute_first},
      {"fuse_first", "fuse first (memory-minimal), then distribute",
       fuse_first},
      {"no_redistribution", "integrated, redistribution disabled",
       no_redistribution},
      {"unlimited_memory", "no memory limit (reference lower bound)",
       config(run, 0)},
  };

  double integrated_comm = 0;  // the first row's, which the rest divide by
  for (const auto& s : strategies) {
    const Attempt a = attempt(tree, model, s.cfg);
    json::ObjectWriter fields;
    fields.field("strategy", s.key)
        .field("threads", run.threads)
        .field("opt_wall_ms", a.wall_ms)
        .field("feasible", a.plan.has_value());
    if (!a.plan.has_value()) {
      table.add_row({s.label, "NO", "-", "-"});
    } else {
      const double comm = a.plan->total_comm_s;
      if (integrated_comm == 0) integrated_comm = comm;
      table.add_row({s.label, "yes", fixed(comm, 1),
                     fixed(comm / integrated_comm, 2) + "x"});
      fields.field("comm_s", comm)
          .field("vs_integrated", comm / integrated_comm);
    }
    run.out.planner_row(fields);
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

/// §3.3's complexity claim: how many configurations each search costed
/// and how few survive the memory filter and the Pareto dominance test.
/// The counts come off the metrics registry, which is reset per case, so
/// the --json document's metrics section reflects the last case.
int pruning(const Run& run) {
  TextTable table({"scenario", "candidates", "memory-cut", "dominated",
                   "bounded", "kept", "max/node", "search ms"});
  for (std::size_t c = 1; c < 8; ++c) table.set_right_aligned(c);

  const ContractionTree paper = paper_tree();
  const ContractionTree quad =
      ContractionTree::from_sequence(binarize_program(parse_program(R"(
      index i, j, k, l = 64
      index a, b, c, d = 256
      Rquad[a,b,i,j] = sum[k,l,c,d] Wklcd[k,l,c,d] * Td[a,c,i,k] * Te[d,b,l,j]
    )")));
  const struct {
    const char* label;
    const ContractionTree& tree;
    std::uint32_t procs;
    std::uint64_t limit;
    bool replication;
  } cases[] = {
      {"paper, 64 procs, 4 GB", paper, 64, kNodeLimit4GB, false},
      {"paper, 16 procs, 4 GB", paper, 16, kNodeLimit4GB, false},
      {"paper, 16 procs, unlimited", paper, 16, 0, false},
      {"paper, 16 procs, 4 GB, +replication", paper, 16, kNodeLimit4GB,
       true},
      {"CCD quadratic term, 64 procs, 4 GB", quad, 64, kNodeLimit4GB, false},
  };

  for (const auto& k : cases) {
    CharacterizedModel model(characterize_itanium(k.procs));
    OptimizerConfig cfg = config(run, k.limit);
    cfg.enable_replication_template = k.replication;
    obs::metrics_reset();
    obs::metrics_enable(true);
    const Attempt a = attempt(k.tree, model, cfg);
    const OptimizedPlan& plan = feasible(a);
    const std::uint64_t candidates = obs::counter_value("opt.candidates");
    const std::uint64_t infeasible = obs::counter_value("opt.infeasible");
    const std::uint64_t dominated = obs::counter_value("opt.dominated");
    const std::uint64_t bounded = obs::counter_value("opt.bounded");
    const std::uint64_t kept = obs::counter_value("opt.kept");
    std::uint64_t max_per_node = 0;
    const auto snapshot = obs::metrics_snapshot();
    if (const auto it = snapshot.find("opt.frontier");
        it != snapshot.end() && it->second.count > 0) {
      max_per_node = static_cast<std::uint64_t>(it->second.max);
    }
    table.add_row({k.label, std::to_string(candidates),
                   std::to_string(infeasible), std::to_string(dominated),
                   std::to_string(bounded), std::to_string(kept),
                   std::to_string(max_per_node),
                   fixed(a.wall_ms, 1)});
    run.out.planner_row(json::ObjectWriter()
                            .field("scenario", k.label)
                            .field("procs", k.procs)
                            .field("mem_limit_bytes", k.limit)
                            .field("replication", k.replication)
                            .field("candidates", candidates)
                            .field("infeasible", infeasible)
                            .field("dominated", dominated)
                            .field("bounded", bounded)
                            .field("kept", kept)
                            .field("max_per_node", max_per_node)
                            .field("search_ms", a.wall_ms)
                            .field("opt_wall_ms", a.wall_ms)
                            .field("threads", run.threads)
                            .field("comm_s", plan.total_comm_s));
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

struct Scenario {
  const char* name;  ///< Command-line name and tce-bench/1 `bench`.
  const char* title;
  int (*run)(const Run&);
  const char* reading;  ///< Printed after the scenario's table.
};

constexpr Scenario kScenarios[] = {
    // Paper: comm 98.0 s = 7.0% of 1403.4 s, no fusion, T1 never
    // communicated.
    {"table1", "Table 1 — 64 processors (32 nodes), 4 GB/node",
     [](const Run& run) {
       return paper_table(run, 64, "paper table 1",
                          "comm 98.0 s (7.0% of 1403.4 s), mem ≈ "
                          "2.04GB/node + 115.2MB buffer");
     },
     ""},
    // Paper: the 55.3 GB T1 no longer fits, so f is fused and T1(b,c,d)
    // rotates once per f iteration in both contractions that touch it.
    {"table2", "Table 2 — 16 processors (8 nodes), 4 GB/node",
     [](const Run& run) {
       return paper_table(run, 16, "paper table 2",
                          "comm 1907.8 s (27.3% of 6983.8 s), mem ≈ "
                          "1.35GB/node + 230.4MB buffer");
     },
     ""},
    {"procsweep", "Processor-count sweep — 4 GB/node, paper workload",
     procsweep,
     "paper narrative: \"as the number of available nodes decreases, more "
     "loop fusions\nare necessary to keep the problem in the available "
     "memory, resulting in higher\ncommunication costs\" (7.0% at 64 procs "
     "vs 27.3% at 16 procs).\n"},
    {"memsweep",
     "Memory-limit sweep — 16 processors (8 nodes), paper workload",
     memsweep,
     "reading: above ~8.4 GB/node the unfused plan fits and fusion is "
     "unnecessary;\nbelow that, T1 must shrink (fuse f, then more), raising "
     "communication; below the\ninput-array footprint no plan exists.\n"},
    {"liveness", "Memory accounting ablation — 16 processors, paper workload",
     liveness,
     "reading: the paper's summed model charges dead intermediates; freeing "
     "them\n(liveness accounting) keeps the cheaper f-fusion plan feasible "
     "down to 1.6 GB/node\nwhere the summed model must over-fuse, and admits "
     "the unfused plan in the\n8.6-8.8 GB window where only the dead output "
     "separates the two models.\n"},
    {"templates",
     "Execution-template ablation — 16 processors, paper workload",
     templates,
     "reading: wherever fusion forces repeated collectives on a large array "
     "paired\nwith a small one, replicating the small operand wins big (4.9x "
     "at the paper's\n4 GB limit); without memory pressure the gains shrink "
     "to the cheap T2 step, and\nreplication drops out entirely when its "
     "transient copies no longer fit.\n"},
    {"baselines",
     "Strategy comparison — 16 processors, 4 GB/node, paper workload",
     baselines,
     "reading: both two-phase strategies fail outright on this workload — "
     "the\ncomm-optimal unfused form cannot fit 4 GB/node, and the "
     "memory-minimal fused\nform leaves nothing to distribute.  Only the "
     "integrated search finds the\nfeasible middle ground (fuse exactly the "
     "f loop).\n"},
    {"pruning", "Pruning effectiveness — §3.3's complexity claim", pruning,
     "reading: tens of thousands of (choice, fusion, operand) combinations "
     "collapse to\na few hundred surviving solutions — per-node sets stay "
     "small, as the paper\nobserved, and the whole search runs in "
     "milliseconds.\n"},
};

}  // namespace

int main(int argc, char** argv) {
  const Scenario* scenario = nullptr;
  for (const Scenario& s : kScenarios) {
    if (argc > 1 && std::string_view(argv[1]) == s.name) scenario = &s;
  }
  if (scenario == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_paper <scenario> [--threads N] [--json F] "
                 "[--metrics F]\nscenarios:");
    for (const Scenario& s : kScenarios) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
  --argc;
  const unsigned threads = take_threads_arg(argc, argv);
  BenchOutput out(scenario->name, argc, argv);
  reject_unknown_args(argc, argv);

  heading(scenario->title);
  const int rc = scenario->run(Run{threads, out});
  if (rc != 0) return rc;
  std::printf("%s", scenario->reading);
  out.finish();
  return 0;
}
