/// \file exec_cannon.cpp
/// Workload exec-cannon: numeric execution of planned problems on the
/// simulated 16- and 64-processor clusters through run_tree.  The
/// problems are the paper program scaled so every extent divides the
/// grid edge, plus a seeded corpus of executor-friendly fuzz programs.
/// Planning, inputs and the reference results (evaluate_tree under the
/// reference kernel) are set-up; one op is one run_tree call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "env.hpp"
#include "tce/cannon/executor.hpp"
#include "tce/common/json.hpp"
#include "tce/common/rng.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/fuzz/generator.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/kernel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Fixed execution settings (recorded in the fingerprint).
constexpr unsigned kPlannerThreads = 1;
constexpr unsigned kKernelThreads = 1;
/// Executor-friendly fuzz programs per run, each at most kFuzzMaxFlops
/// and kFuzzMaxBytes (unfused arrays) so the seeded part varies shapes
/// without swinging the run's time or memory.
constexpr std::size_t kFuzzProblems = 12;
constexpr double kFuzzMaxFlops = 1e6;
constexpr double kFuzzMaxBytes = 1e6;
/// Rounds per cycle over the corpus.  Each round runs the scaled paper
/// problems whose weight exceeds the round number, then two fuzz
/// programs, so the latency percentiles sit on the fixed paper shapes
/// and stay put from seed to seed.
constexpr std::size_t kRounds = 6;

/// The paper's chain at executable scale: (virtual, auxiliary, occupied)
/// extents, the grid it runs on (all extents divide its edge) and how
/// many rounds of a cycle run it.  The largest problem runs once per
/// cycle, about 3% of ops, so op_p99_ms measures it rather than noise.
struct ScaledPaper {
  std::uint32_t procs;
  std::uint64_t virt, aux, occ;
  std::size_t weight;
};
constexpr ScaledPaper kScaled[] = {
    {16, 16, 8, 8, kRounds},
    {16, 24, 8, 4, kRounds},
    {64, 16, 8, 8, kRounds},
    {64, 24, 8, 8, 1},
};

struct Cluster {
  tce::ProcGrid grid;
  std::unique_ptr<tce::Network> net;
  std::unique_ptr<tce::CharacterizedModel> model;
};

struct ExecCase {
  std::string label;
  const Cluster* cluster = nullptr;
  std::unique_ptr<tce::ContractionTree> tree;
  std::map<tce::NodeId, tce::CannonChoice> choices;
  std::map<std::string, tce::DenseTensor> inputs;
  tce::DenseTensor reference;
  double flops = 0;
  double comm_s = 0;  ///< The plan's predicted communication seconds.
};

struct ExecSetup {
  std::map<std::uint32_t, Cluster> clusters;
  std::vector<ExecCase> cases;
  double characterize_s = 0;
  double peak_gflops = 0;
};

std::string scaled_program(const ScaledPaper& s) {
  return "index a, b, c, d = " + std::to_string(s.virt) +
         "\nindex e, f = " + std::to_string(s.aux) +
         "\nindex i, j, k, l = " + std::to_string(s.occ) +
         "\nT1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]"
         "\nT2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]"
         "\nS[a,b,i,j] = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]\n";
}

/// A seeded executor-friendly fuzz program moved to the next grid up
/// (4 → 16 or 16 → 64 processors) with every extent doubled, so the
/// extents still divide the larger grid's edge.
std::pair<std::string, std::uint32_t> fuzz_program(std::uint64_t seed) {
  tce::fuzz::GenOptions gen;
  gen.max_nodes = 3;
  gen.exec_friendly = true;
  tce::fuzz::FuzzInstance inst = tce::fuzz::generate_instance(seed, gen);
  for (auto& index : inst.indices) index.second *= 2;
  return {inst.program(), inst.procs * 4};
}

/// Plans \p text on its cluster and adds it with inputs and reference.
/// Returns false (adding nothing) when the program exceeds \p max_flops
/// or \p max_bytes, or its plan has a partial Cannon triplet, which the
/// numeric executor cannot run.
bool add_case(ExecSetup& s, std::string label, const std::string& text,
              std::uint32_t procs, double max_flops, double max_bytes,
              tce::Rng& rng) {
  ExecCase c;
  c.label = std::move(label);
  c.cluster = &s.clusters.at(procs);
  c.tree = std::make_unique<tce::ContractionTree>(
      tce::ContractionTree::from_sequence(tce::parse_formula_sequence(text)));
  c.flops = static_cast<double>(c.tree->total_flops());
  if (c.flops > max_flops ||
      static_cast<double>(c.tree->total_bytes_unfused()) > max_bytes) {
    return false;
  }
  tce::OptimizerConfig cfg;
  cfg.threads = kPlannerThreads;
  const tce::OptimizedPlan plan =
      tce::optimize(*c.tree, *c.cluster->model, cfg);
  for (const tce::PlanStep& step : plan.steps) {
    if (step.choice.i == tce::kNoIndex || step.choice.j == tce::kNoIndex ||
        step.choice.k == tce::kNoIndex) {
      return false;
    }
    c.choices[step.node] = step.choice;
  }
  c.comm_s = plan.total_comm_s;
  c.inputs = tce::make_random_inputs(*c.tree, rng);
  {
    const tce::ScopedKernelConfig ref(tce::KernelKind::kReference);
    c.reference = tce::evaluate_tree(*c.tree, c.inputs);
  }
  s.cases.push_back(std::move(c));
  return true;
}

ExecSetup build_setup(std::uint64_t seed) {
  ExecSetup s;
  const double t0 = now_s();
  for (std::uint32_t procs : {16u, 64u}) {
    Cluster& c = s.clusters[procs];
    c.grid = tce::ProcGrid::make(procs, 2);
    c.net = std::make_unique<tce::Network>(
        tce::ClusterSpec::itanium2003(c.grid.nodes()));
    c.model = std::make_unique<tce::CharacterizedModel>(
        tce::characterize(*c.net, c.grid));
  }
  s.characterize_s = now_s() - t0;
  s.peak_gflops = measure_fma_peak_gflops(0.1);

  tce::Rng rng(seed);
  for (const ScaledPaper& sp : kScaled) {
    (void)add_case(s,
             "paper-scaled/p" + std::to_string(sp.procs) + "/" +
                 std::to_string(sp.virt) + "-" + std::to_string(sp.aux) +
                 "-" + std::to_string(sp.occ),
             scaled_program(sp), sp.procs, HUGE_VAL, HUGE_VAL, rng);
  }
  for (std::uint64_t fseed = seed * 1000;
       s.cases.size() < std::size(kScaled) + kFuzzProblems; ++fseed) {
    const auto [text, procs] = fuzz_program(fseed);
    (void)add_case(
        s, "fuzz/" + std::to_string(fseed) + "/p" + std::to_string(procs),
        text, procs, kFuzzMaxFlops, kFuzzMaxBytes, rng);
  }
  return s;
}

}  // namespace

WorkloadResult run_exec_cannon(const RunOptions& opts) {
  WorkloadResult r;
  tce::KernelConfig kcfg;
  kcfg.kind = tce::KernelKind::kTiled;
  kcfg.threads = kKernelThreads;
  const tce::ScopedKernelConfig kernel(kcfg);

  std::vector<double> setup_times;
  ExecSetup setup;
  for (int i = 0; i < opts.setup_repeats; ++i) {
    const double t0 = now_s();
    setup = build_setup(opts.seed);
    setup_times.push_back(now_s() - t0);
  }
  std::vector<std::size_t> order;
  const std::size_t papers = std::size(kScaled);
  const std::size_t per_round = kFuzzProblems / kRounds;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t p = 0; p < papers; ++p) {
      if (round < kScaled[p].weight) order.push_back(p);
    }
    for (std::size_t k = 0; k < per_round; ++k) {
      order.push_back(papers + round * per_round + k);
    }
  }
  const std::size_t n = order.size();

  std::size_t next = 0;
  double flops_done = 0, run_tree_s = 0;
  const auto run_window = [&](double seconds, StageTable* stages) {
    std::vector<OpSample> ops;
    const double start = now_s();
    while (now_s() - start < seconds) {
      const std::size_t ci = order[next++ % n];
      const ExecCase& c = setup.cases[ci];
      const int cls = static_cast<int>(ci);
      const double t0 = now_s();
      std::string err;
      try {
        const tce::TreeRunResult run = tce::run_tree(
            *c.cluster->net, c.cluster->grid, *c.tree, c.choices, c.inputs);
        const double t1 = now_s();
        ops.push_back({t1, (t1 - t0) * 1e3, cls});
        const double diff = c.reference.max_abs_diff(run.result);
        if (!(diff <= kExecTolerance)) {
          err = c.label + ": result differs from the reference by " +
                std::to_string(diff);
        }
        if (stages != nullptr) {
          run_tree_s += t1 - t0;
          flops_done += c.flops;
          stages->add("check_s", now_s() - t1);
        }
      } catch (const std::exception& e) {
        const double t1 = now_s();
        ops.push_back({t1, (t1 - t0) * 1e3, cls});
        err = c.label + ": " + e.what();
      }
      ++r.attempted;
      if (!err.empty()) r.fail(err);
    }
    return std::make_pair(ops, start);
  };

  double comm_total = 0;
  for (const ExecCase& c : setup.cases) comm_total += c.comm_s;
  r.settings["planner_threads"] = std::to_string(kPlannerThreads);
  r.settings["kernel"] = "tiled";
  r.settings["kernel_threads"] = std::to_string(kKernelThreads);
  r.settings["problems"] = std::to_string(setup.cases.size());
  r.settings["cycle_ops"] = std::to_string(n);
  r.settings["procs"] = "16,64";
  r.settings["fma_peak_gflops"] = tce::json::number(setup.peak_gflops);

  if (!opts.trace) {
    const auto [ops, start] = run_window(opts.seconds, nullptr);
    set_end_to_end(r, ops, start, now_s() - start, median(setup_times));
    return r;
  }

  const std::vector<OpSample> plain =
      run_window(opts.seconds / 2, nullptr).first;
  tce::obs::metrics_reset();
  tce::obs::metrics_enable(true);
  StageTable stages;
  const double cpu0 = cpu_seconds();
  const auto [traced, start] = run_window(opts.seconds / 2, &stages);
  const double window = now_s() - start;
  const double cpu_s = cpu_seconds() - cpu0;
  tce::obs::metrics_enable(false);

  set_registry_metrics(r, static_cast<double>(traced.size()));
  const double gemm_s = r.metrics["kernel.gemm_s.sum"].value;
  stages.add("kernel.gemm_s.sum", gemm_s);
  stages.add("cannon.nonkernel_s", run_tree_s - gemm_s);
  r.set("cannon.run_tree_s", run_tree_s, "s");
  r.set("kernel.gflops", gemm_s > 0 ? flops_done / gemm_s / 1e9 : 0,
        "GFLOP/s");
  r.set("kernel.peak_gflops", setup.peak_gflops, "GFLOP/s");
  r.set("kernel.peak_fraction",
        setup.peak_gflops > 0
            ? r.metrics["kernel.gflops"].value / setup.peak_gflops
            : 0,
        "ratio");
  r.set("exec.gflops", window > 0 ? flops_done / window / 1e9 : 0,
        "GFLOP/s");
  r.set("core.plan_comm_s", comm_total, "sim_s");
  r.set("costmodel.characterize_s", setup.characterize_s, "s");
  finish_traced(r, stages, "exec-cannon stage table (traced half)", window,
                cpu_s / window, plain, traced);
  return r;
}

}  // namespace perfbench
