// The paper's evaluation, one scenario per run:
//
//   bench_paper <scenario> [--threads N] [--json F] [--metrics F]
//
// Tables 1–2, the §4 processor-count and memory-limit sweeps, §2's
// operation counts, the §2/§3.2 strategy comparison, §3.3's RCost
// characterization and pruning claim, two extension ablations, a
// beyond-paper coupled-cluster forest and a numeric check of the
// distributed executor, all on the simulated Itanium cluster.  Each
// scenario prints its table; with --json it also writes a tce-bench/1
// document whose `bench` is the scenario name.  Planner rows carry
// `threads`, the measured `opt_wall_ms` and the run's p50/p99 search
// latency (docs/FORMATS.md).  A scenario that finds a fault (a verifier
// diagnostic, a numeric FAIL) exits 1.

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "tce/cannon/executor.hpp"
#include "tce/common/checked.hpp"
#include "tce/common/table.hpp"
#include "tce/core/forest.hpp"
#include "tce/fusion/memmin.hpp"
#include "tce/opmin/opmin.hpp"
#include "tce/tensor/kernel.hpp"
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

/// One timed search; `plan` is empty when no plan fits.
template <typename Plan>
struct Attempt {
  std::optional<Plan> plan;
  double wall_ms = 0;
};

/// Runs \p search (optimize or optimize_forest) under a stopwatch.
template <typename Search>
auto timed(const Search& search) {
  using Plan = decltype(search());
  const Stopwatch sw;
  try {
    Plan plan = search();
    return Attempt<Plan>{std::move(plan), sw.elapsed_s() * 1000};
  } catch (const InfeasibleError&) {
    return Attempt<Plan>{std::nullopt, sw.elapsed_s() * 1000};
  }
}

Attempt<OptimizedPlan> attempt(const ContractionTree& tree,
                               const MachineModel& model,
                               const OptimizerConfig& cfg) {
  return timed([&] { return optimize(tree, model, cfg); });
}

/// The plan of a configuration the scenario needs to fit.
const OptimizedPlan& feasible(const Attempt<OptimizedPlan>& a) {
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

/// §2's operation-minimization observations: the 4-factor NWChem
/// expression costs 4N^10 evaluated directly but 6N^6 after factoring
/// through the intermediates T1, T2 (Fig. 2(a)); and the Fig. 1 example
/// drops from 2·Ni·Nj·Nk·Nt to Ni·Nj·Nt + Nj·Nk·Nt + 2·Nj·Nt.
int opmin(const Run& run) {
  const auto minimize = [](const std::string& program) {
    const ParsedProgram p = parse_program(program);
    return minimize_operations(OpMinInput::from_statement(p.statements[0]),
                               p.space);
  };

  TextTable table({"N", "naive (4N^10)", "optimal (6N^6)", "speedup"});
  for (std::size_t c = 1; c < 4; ++c) table.set_right_aligned(c);
  for (std::uint64_t n : {10ull, 20ull, 40ull, 80ull}) {
    const OpMinResult r = minimize(
        "index a, b, c, d, e, f, i, j, k, l = " + std::to_string(n) +
        "\nS[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * "
        "C[d,f,j,k] * D[c,d,e,l]");
    const bool saturated =
        r.naive_flops == std::numeric_limits<std::uint64_t>::max();
    json::ObjectWriter fields;
    fields.field("example", "4-factor NWChem")
        .field("n", n)
        .field("naive_saturated", saturated)
        .field("optimal_flops", r.flops);
    if (!saturated) fields.field("naive_flops", r.naive_flops);
    run.out.row(fields);
    table.add_row(
        {std::to_string(n),
         saturated ? ">1.8e19 (saturated)" : std::to_string(r.naive_flops),
         std::to_string(r.flops),
         saturated ? "-"
                   : fixed(static_cast<double>(r.naive_flops) /
                               static_cast<double>(r.flops),
                           1) +
                         "x"});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("paper extents (480/64/32):\n");
  const OpMinResult paper = minimize(R"(
    index a, b, c, d = 480
    index e, f = 64
    index i, j, k, l = 32
    S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l]
  )");
  std::printf("  optimal flops: %.3e (naive saturates >1.8e19)\n",
              static_cast<double>(paper.flops));
  run.out.row(json::ObjectWriter()
                  .field("example", "paper extents")
                  .field("optimal_flops", paper.flops)
                  .field("largest_intermediate_elems",
                         paper.largest_intermediate));
  std::printf("  largest intermediate: %.3e elements (T1's 55.3 GB)\n",
              static_cast<double>(paper.largest_intermediate));
  std::printf("  recovered formula sequence (cf. Fig. 2(a)):\n%s\n",
              paper.sequence.str().c_str());

  std::printf("Fig. 1 example, Ni=10 Nj=20 Nk=30 Nt=5:\n");
  const OpMinResult fig1 = minimize(R"(
    index i = 10
    index j = 20
    index k = 30
    index t = 5
    S[t] = sum[i,j,k] A[i,j,t] * B[j,k,t]
  )");
  std::printf("  naive 2NiNjNkNt = %llu, optimal NiNjNt+NjNkNt+2NjNt = "
              "%llu\n",
              static_cast<unsigned long long>(fig1.naive_flops),
              static_cast<unsigned long long>(fig1.flops));
  std::printf("  recovered formula sequence (cf. Fig. 1(a)):\n%s\n",
              fig1.sequence.str().c_str());
  run.out.row(json::ObjectWriter()
                  .field("example", "fig1")
                  .field("naive_flops", fig1.naive_flops)
                  .field("optimal_flops", fig1.flops));
  return 0;
}

/// §3.3's empirical characterization: RCost(localsize, α, i) measured on
/// the simulated cluster for both grid dimensions plus the
/// redistribution curve, at the two machine sizes the paper evaluates.
/// Each table is round-tripped through the characterization-file
/// format, the "generate once, reuse by interpolation" workflow the
/// paper describes.
int characterization(const Run& run) {
  for (std::uint32_t procs : {64u, 16u}) {
    heading("RCost characterization — " + std::to_string(procs) +
            " processors");
    const CharacterizationTable t = characterize_itanium(procs);

    TextTable table({"block bytes", "rotate dim1 (s)", "rotate dim2 (s)",
                     "redistribute (s)"});
    for (std::size_t c = 0; c < 4; ++c) table.set_right_aligned(c);
    const auto& bytes = t.rotate_dim1.sample_bytes();
    for (std::size_t i = 0; i < bytes.size(); i += 4) {
      table.add_row({std::to_string(bytes[i]),
                     fixed(t.rotate_dim1.sample_seconds()[i], 4),
                     fixed(t.rotate_dim2.sample_seconds()[i], 4),
                     fixed(t.redistribute.sample_seconds()[i], 4)});
    }
    std::printf("%s", table.str().c_str());

    // Round-trip through the file format and spot-check interpolation.
    const CharacterizedModel model(
        CharacterizationTable::load_string(t.save_string()));
    std::printf(
        "\ninterpolation spot checks (between samples):\n"
        "  55.3MB rotation:  %s s (Table 2's per-f T1 rotation step cost)\n"
        "  118MB  rotation:  %s s (Table 2's unfused A/T2 rotation)\n\n",
        fixed(model.rotate_cost(55'296'000, 1), 2).c_str(),
        fixed(model.rotate_cost(117'964'800, 1), 2).c_str());
    run.out.row(json::ObjectWriter()
                    .field("procs", procs)
                    .field("samples", bytes.size())
                    .field("rotate_55mb_s", model.rotate_cost(55'296'000, 1))
                    .field("rotate_118mb_s",
                           model.rotate_cost(117'964'800, 1)));

    // The v3 compute curve: per-rank GEMM seconds vs flops, derated from
    // the peak rate by the tiled kernel's structural efficiency model
    // (deterministic — no wall clock; docs/KERNELS.md).
    heading("compute curve (flops → seconds, structural efficiency)");
    TextTable ct({"n (square GEMM)", "flops", "efficiency", "seconds",
                  "effective GF/s"});
    for (std::size_t c = 0; c < 5; ++c) ct.set_right_aligned(c);
    const auto& cf = t.compute.sample_bytes();
    for (std::size_t i = 0; i < cf.size(); i += 2) {
      const double s = t.compute.sample_seconds()[i];
      const double fl = static_cast<double>(cf[i]);
      const auto n = static_cast<std::uint64_t>(std::cbrt(fl / 2.0) + 0.5);
      ct.add_row({std::to_string(n), std::to_string(cf[i]),
                  fixed(gemm_model_efficiency(n, n, n), 4), fixed(s, 4),
                  fixed(fl / s / 1e9, 4)});
    }
    std::printf("%s", ct.str().c_str());
  }
  return 0;
}

/// Numeric check of the distributed executor: the paper workload scaled
/// by 1/8 (every extent divisible by the grid edge 4), planned at 16
/// procs and executed by run_plan, must match the reference einsum.
/// `tcemin validate` compares predicted and simulated plan cost.
int validate(const Run& run) {
  const ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(R"(
    index a, b, c, d = 60
    index e, f = 8
    index i, j, k, l = 4
    T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
    T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
    S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
  )"));
  const ProcGrid grid = ProcGrid::make(16, 2);
  Network net(ClusterSpec::itanium2003(8));
  const CharacterizedModel model(characterize(net, grid));
  const Attempt a = attempt(tree, model, config(run, 0));
  const OptimizedPlan& plan = feasible(a);  // unfused at this scale

  Rng rng(2026);
  const auto inputs = make_random_inputs(tree, rng);
  const TreeRunResult result = run_plan(net, grid, tree, plan, inputs);
  const double diff = evaluate_tree(tree, inputs).max_abs_diff(result.result);
  const bool pass = diff < 1e-8;

  std::printf("max |distributed - reference| = %.3e  (%s)\n", diff,
              pass ? "PASS" : "FAIL");
  run.out.planner_row(json::ObjectWriter()
                          .field("scenario", "numeric validation")
                          .field("max_abs_diff", diff)
                          .field("pass", pass)
                          .field("executed_comm_s", result.timing.comm_s)
                          .field("executed_compute_s",
                                 result.timing.compute_s)
                          .field("predicted_comm_s", plan.total_comm_s)
                          .field("opt_wall_ms", a.wall_ms)
                          .field("threads", run.threads));
  std::printf("simulated execution: comm %.2f s, compute %.2f s\n",
              result.timing.comm_s, result.timing.compute_s);
  std::printf("optimizer predicted: comm %.2f s\n", plan.total_comm_s);
  return pass ? 0 : 1;
}

/// Beyond-paper workload: a CCD doubles-residual-like computation — four
/// independent output terms (particle-particle ladder, hole-hole ladder,
/// ring, and a quadratic term that needs operation minimization first) —
/// planned jointly as a forest under a shared memory limit, with and
/// without the replicate–compute–reduce extension.  This is the shape of
/// computation the paper's program-synthesis system targets (NWChem /
/// coupled cluster); repeated amplitude uses are named apart (Ta..Te)
/// per the DSL's single-binding rule.
int ccd(const Run& run) {
  const ContractionForest forest =
      ContractionForest::from_sequence(binarize_program(parse_program(R"(
    index i, j, k, l = 64      # occupied orbitals
    index a, b, c, d = 256     # virtual orbitals
    Rpp[a,b,i,j] = sum[c,d] Vabcd[a,b,c,d] * Ta[c,d,i,j]
    Rhh[a,b,i,j] = sum[k,l] Vklij[k,l,i,j] * Tb[a,b,k,l]
    Rring[a,b,i,j] = sum[k,c] Vakic[a,k,i,c] * Tc[c,b,k,j]
    Rquad[a,b,i,j] = sum[k,l,c,d] Wklcd[k,l,c,d] * Td[a,c,i,k] * Te[d,b,l,j]
  )"), "tmp", /*allow_forest=*/true));
  std::uint64_t unfused_bytes = 0;
  for (const ContractionTree& t : forest.trees) {
    unfused_bytes += t.total_bytes_unfused();
  }
  std::printf("%zu output terms, %.3e total flops, %s of arrays unfused\n\n",
              forest.trees.size(),
              static_cast<double>(forest.total_flops()),
              format_bytes_si(unfused_bytes).c_str());

  TextTable table({"procs", "limit/node", "replication", "comm (s)",
                   "runtime (s)", "comm %", "mem/node"});
  for (std::size_t c = 3; c < 7; ++c) table.set_right_aligned(c);
  // The dominant term's plan at a feasible 16-processor setting (the
  // 34 GB Vabcd integral tensor alone needs >4.3 GB/node on 8 nodes, so
  // the 16-proc rows are infeasible at small limits).
  std::optional<ForestPlan> plan;
  for (std::uint32_t procs : {16u, 64u}) {
    CharacterizedModel model(characterize_itanium(procs));
    for (double gb : {1.0, 2.0, 4.0, 16.0}) {
      for (bool repl : {false, true}) {
        OptimizerConfig cfg = config(run, gb_bytes(gb));
        cfg.enable_replication_template = repl;
        const Attempt a =
            timed([&] { return optimize_forest(forest, model, cfg); });
        std::vector<std::string> row{std::to_string(procs),
                                     fixed(gb, 0) + " GB",
                                     repl ? "yes" : "no"};
        json::ObjectWriter fields;
        fields.field("procs", procs)
            .field("mem_limit_bytes", cfg.mem_limit_node_bytes)
            .field("replication", repl)
            .field("threads", run.threads)
            .field("opt_wall_ms", a.wall_ms)
            .field("feasible", a.plan.has_value());
        if (a.plan.has_value()) {
          const ForestPlan& p = *a.plan;
          row.insert(row.end(), {fixed(p.total_comm_s, 1),
                                 fixed(p.total_runtime_s(), 1),
                                 fixed(100 * p.comm_fraction(), 1),
                                 format_bytes_paper(p.bytes_per_node)});
          fields.field("comm_s", p.total_comm_s)
              .field("runtime_s", p.total_runtime_s())
              .field("comm_fraction", p.comm_fraction())
              .field("mem_per_node_bytes", p.bytes_per_node);
        } else {
          row.insert(row.end(), {"INFEASIBLE", "-", "-", "-"});
        }
        run.out.planner_row(fields);
        table.add_row(std::move(row));
        if (procs == 16 && gb == 16.0 && !repl) plan = a.plan;
      }
    }
  }
  std::printf("%s\n", table.str().c_str());

  std::size_t biggest = 0;
  for (std::size_t t = 1; t < plan.value().plans.size(); ++t) {
    if (plan->plans[t].total_comm_s > plan->plans[biggest].total_comm_s) {
      biggest = t;
    }
  }
  const ContractionTree& tree = forest.trees[biggest];
  std::printf("dominant term (%s) at 16 procs / 16 GB:\n%s\n",
              tree.node(tree.root()).tensor.name.c_str(),
              plan->plans[biggest].table(tree.space()).c_str());
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
    {"opmin", "Operation minimization — §2 examples", opmin, ""},
    {"characterize", "RCost characterization — §3.3, 64 and 16 processors",
     characterization, ""},
    {"validate",
     "Numeric validation — scaled workload executed by the distributed "
     "Cannon engine",
     validate,
     "(the executor overlaps both rotating arrays in one phase; at this "
     "tiny scale\n per-message latency dominates, so the summed-solo "
     "prediction is pessimistic —\n at paper scale the two agree within "
     "~1.5%: tcemin validate examples/paper.tce)\n"},
    {"ccd", "CCD doubles residual (4 terms) — forest optimization", ccd,
     ""},
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
