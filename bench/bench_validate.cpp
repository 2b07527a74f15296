// Validation: the optimizer's *predicted* communication cost (RotateCost
// formulas over the characterized machine) versus the *simulated* cost of
// actually executing the plan's flows on the cluster simulator — with
// both rotating arrays of each contraction sharing the network
// concurrently, per-iteration for fused steps.  Also checks the
// numerics: the unfused plan executed by the distributed Cannon engine
// must match the reference einsum.

#include "tce/cannon/executor.hpp"
#include "tce/common/table.hpp"
#include "tce/core/simulate.hpp"

#include "bench_common.hpp"

namespace {

using namespace tce;
using namespace tce::bench;

/// Planner thread count (--threads N) shared by every scenario below.
unsigned g_threads = 0;

// The paper workload scaled by 1/8 so the numeric run is cheap:
// a..d = 60, e..f = 8, i..l = 4 — all divisible by the edge (4).
constexpr const char* kScaledProgram = R"(
  index a, b, c, d = 60
  index e, f = 8
  index i, j, k, l = 4
  T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
  T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
  S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
)";

void predicted_vs_simulated(BenchOutput& out, const char* scenario,
                            const char* title, const char* program,
                            std::uint32_t procs, std::uint64_t limit,
                            bool replication = false) {
  heading(title);
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(program));
  const ProcGrid grid = ProcGrid::make(procs, 2);
  Network net(ClusterSpec::itanium2003(grid.nodes()));
  CharacterizedModel model(characterize(net, grid));

  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = limit;
  cfg.enable_replication_template = replication;
  cfg.threads = g_threads;
  const Stopwatch sw;
  OptimizedPlan plan = optimize(tree, model, cfg);
  const double opt_wall_ms = sw.elapsed_s() * 1000;

  TextTable table({"step", "fused", "predicted (s)", "simulated (s)",
                   "error"});
  for (std::size_t c = 2; c < 5; ++c) table.set_right_aligned(c);
  double pred_total = 0, sim_total = 0;
  for (const PlanStep& s : plan.steps) {
    const double pred = s.rot_left_s + s.rot_right_s + s.rot_result_s;
    const double sim =
        simulate_step(net, grid, tree.space(), tree.node(s.node), s).comm_s;
    pred_total += pred;
    sim_total += sim;
    const double err =
        sim > 0 ? 100.0 * (pred - sim) / sim : 0.0;
    table.add_row({s.result_name, s.effective_fused.str(tree.space()),
                   fixed(pred, 2), fixed(sim, 2), fixed(err, 1) + "%"});
  }
  table.add_row({"TOTAL", "", fixed(pred_total, 2), fixed(sim_total, 2),
                 fixed(sim_total > 0
                           ? 100.0 * (pred_total - sim_total) / sim_total
                           : 0.0,
                       1) + "%"});
  std::printf("%s\n", table.str().c_str());
  out.planner_row(json::ObjectWriter()
              .field("scenario", scenario)
              .field("procs", procs)
              .field("predicted_s", pred_total)
              .field("simulated_s", sim_total)
              .field("error_pct",
                     sim_total > 0
                         ? 100.0 * (pred_total - sim_total) / sim_total
                         : 0.0)
              .field("opt_wall_ms", opt_wall_ms)
              .field("threads", g_threads));
}

void numeric_validation(BenchOutput& out) {
  heading("Numeric validation — scaled workload executed by the "
          "distributed Cannon engine");
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence(kScaledProgram));
  const ProcGrid grid = ProcGrid::make(16, 2);
  Network net(ClusterSpec::itanium2003(8));
  CharacterizedModel model(characterize(net, grid));
  OptimizerConfig ncfg;
  ncfg.threads = g_threads;
  const Stopwatch sw;
  OptimizedPlan plan = optimize(tree, model, ncfg);  // unfused at this scale
  const double opt_wall_ms = sw.elapsed_s() * 1000;

  Rng rng(2026);
  auto inputs = make_random_inputs(tree, rng);
  TreeRunResult run = run_plan(net, grid, tree, plan, inputs);
  DenseTensor want = evaluate_tree(tree, inputs);
  const double diff = want.max_abs_diff(run.result);

  std::printf("max |distributed - reference| = %.3e  (%s)\n", diff,
              diff < 1e-8 ? "PASS" : "FAIL");
  out.planner_row(json::ObjectWriter()
              .field("scenario", "numeric validation")
              .field("max_abs_diff", diff)
              .field("pass", diff < 1e-8)
              .field("executed_comm_s", run.timing.comm_s)
              .field("executed_compute_s", run.timing.compute_s)
              .field("predicted_comm_s", plan.total_comm_s)
              .field("opt_wall_ms", opt_wall_ms)
              .field("threads", g_threads));
  std::printf("simulated execution: comm %.2f s, compute %.2f s\n",
              run.timing.comm_s, run.timing.compute_s);
  std::printf("optimizer predicted: comm %.2f s\n", plan.total_comm_s);
  std::printf(
      "(the executor overlaps both rotating arrays in one phase; at this "
      "tiny scale\n per-message latency dominates, so the summed-solo "
      "prediction is pessimistic —\n at paper scale the two agree within "
      "~1.5%%, see the tables above)\n");
}

}  // namespace

int main(int argc, char** argv) {
  g_threads = tce::bench::take_threads_arg(argc, argv);
  BenchOutput out("validate", argc, argv);
  tce::bench::reject_unknown_args(argc, argv);
  predicted_vs_simulated(
      out, "64 procs, unfused",
      "Predicted vs simulated — paper workload, 64 procs, unfused",
      kPaperProgram, 64, kNodeLimit4GB);
  predicted_vs_simulated(
      out, "16 procs, fused",
      "Predicted vs simulated — paper workload, 16 procs, fused",
      kPaperProgram, 16, kNodeLimit4GB);
  predicted_vs_simulated(
      out, "16 procs, replication",
      "Predicted vs simulated — 16 procs, replicate-compute-reduce "
      "template",
      kPaperProgram, 16, kNodeLimit4GB, /*replication=*/true);
  numeric_validation(out);
  out.finish();
  return 0;
}
