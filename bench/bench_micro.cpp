// Engineering micro-benchmarks (google-benchmark): search and substrate
// costs — optimizer DP wall time, opmin subset DP scaling, max-min
// fairness solver, flow simulation, the local contraction kernel, and
// characterization generation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "tce/common/rng.hpp"
#include "tce/opmin/opmin.hpp"
#include "tce/simnet/maxmin.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/ttgt.hpp"

#include "bench_common.hpp"

namespace {

using namespace tce;
using namespace tce::bench;

/// Planner thread count for the optimizer benchmarks (--threads N).
unsigned g_threads = 0;

// ----------------------------------------------- Local kernel sweep
//
// Square DGEMM, reference vs tiled kernel, single-threaded (the
// per-rank setting the executor and the characterization compute curve
// model).  Each row lands in the tce-bench/1 document with the measured
// GFLOP/s and the speedup, plus `min_speedup` — the floor CI gates the
// ratio against (BENCH_micro.json).  Floors are deliberately below the
// measured ratios: the default build shows ≳9× at 1024², an
// -O3 -march=native build auto-vectorizes the reference loops and
// narrows it to ≈5×, and shared CI runners add noise on top.

struct KernelRow {
  std::uint64_t n;
  double ref_s;
  double tiled_s;
};

double best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_s());
  }
  return best;
}

double kernel_floor(std::uint64_t n) {
  if (n >= 512) return 3.0;
  if (n >= 256) return 1.0;
  return 0.0;  // tiny blocks: pack overhead can win; report only
}

void run_kernel_sweep(BenchOutput& out) {
  heading(std::string("local GEMM kernels (ref vs tiled, 1 thread, "
                      "microkernel isa=") +
          gemm_microkernel_isa() + ")");
  std::printf("%6s %12s %12s %9s %9s\n", "n", "ref GF/s", "tiled GF/s",
              "speedup", "model eff");
  const TileConfig tiles;
  for (const std::uint64_t n : {64ull, 128ull, 256ull, 512ull, 1024ull}) {
    Rng rng(1);
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
    for (auto& v : a) v = rng.uniform_real(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform_real(-1.0, 1.0);
    const double flops = 2.0 * static_cast<double>(n * n * n);
    const int reps = n >= 1024 ? 2 : 3;
    const double ref_s = best_of(
        reps, [&] { gemm_ref(a, b, c, n, n, n, tiles); });
    // The tiled kernel as the executor runs it: both operands packed
    // (inside the timed region) and multiplied once.
    PackedGemm gemm(n, n, n, KernelConfig{KernelKind::kTiled, tiles, 1});
    std::vector<double> ap(gemm.a_size()), bp(gemm.b_size());
    std::vector<std::uint64_t> rows(n), cols(n);
    for (std::uint64_t x = 0; x < n; ++x) {
      rows[x] = x * n;
      cols[x] = x;
    }
    const double tiled_s = best_of(reps, [&] {
      gemm.pack_a(a, rows, cols, ap);
      gemm.pack_b(b, rows, cols, bp);
      gemm.multiply_acc(ap, bp, c);
    });
    const double speedup = ref_s / tiled_s;
    const double eff = gemm_model_efficiency(n, n, n);
    std::printf("%6llu %12.2f %12.2f %8.2fx %9.3f\n",
                static_cast<unsigned long long>(n), flops / ref_s / 1e9,
                flops / tiled_s / 1e9, speedup, eff);
    out.row(json::ObjectWriter()
                .field("name", "gemm_kernels")
                .field("n", n)
                .field("flops", 2 * n * n * n)
                .field("ref_gflops", flops / ref_s / 1e9)
                .field("tiled_gflops", flops / tiled_s / 1e9)
                .field("speedup", speedup)
                .field("min_speedup", kernel_floor(n))
                .field("model_efficiency", eff)
                .field("isa", gemm_microkernel_isa())
                .field("threads", 1));
  }
}

void BM_ParsePaperProgram(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_formula_sequence(kPaperProgram));
  }
}
BENCHMARK(BM_ParsePaperProgram);

void BM_OptimizerPaperTree(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(procs));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.threads = g_threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize(tree, model, cfg));
  }
}
BENCHMARK(BM_OptimizerPaperTree)->Arg(16)->Arg(64);

void BM_OptimizerWithReplication(benchmark::State& state) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(
      characterize_itanium(static_cast<std::uint32_t>(state.range(0))));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.enable_replication_template = true;
  cfg.threads = g_threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize(tree, model, cfg));
  }
}
BENCHMARK(BM_OptimizerWithReplication)->Arg(16);

void BM_OpminSubsetDP(benchmark::State& state) {
  // Chain product of n matrices: W1[x0,x1]·W2[x1,x2]·...
  const int n = static_cast<int>(state.range(0));
  std::string text;
  for (int i = 0; i <= n; ++i) {
    text += "index x" + std::to_string(i) + " = " +
            std::to_string(8 + 8 * (i % 3)) + "\n";
  }
  text += "S[x0,x" + std::to_string(n) + "] = sum[";
  for (int i = 1; i < n; ++i) {
    if (i > 1) text += ",";
    text += 'x';
    text += std::to_string(i);
  }
  text += "] ";
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += " * ";
    text += 'W';
    text += std::to_string(i);
    text += "[x";
    text += std::to_string(i);
    text += ",x";
    text += std::to_string(i + 1);
    text += ']';
  }
  ParsedProgram p = parse_program(text);
  OpMinInput in = OpMinInput::from_statement(p.statements[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize_operations(in, p.space));
  }
}
BENCHMARK(BM_OpminSubsetDP)->Arg(4)->Arg(8)->Arg(12);

void BM_MaxMinFairness(benchmark::State& state) {
  const std::size_t nf = static_cast<std::size_t>(state.range(0));
  const std::size_t nr = 64;
  std::vector<ResourcePath> paths(nf);
  std::vector<double> caps(nr, 100.0);
  for (std::size_t f = 0; f < nf; ++f) {
    paths[f] = {static_cast<std::uint32_t>(f % nr),
                static_cast<std::uint32_t>((f * 7 + 3) % nr)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(maxmin_fair_rates(paths, caps));
  }
}
BENCHMARK(BM_MaxMinFairness)->Arg(64)->Arg(256)->Arg(1024);

void BM_RingFlowSimulation(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  Network net(ClusterSpec::itanium2003(procs / 2));
  std::vector<Flow> flows;
  for (std::uint32_t r = 0; r < procs; ++r) {
    flows.push_back({r, (r + 1) % procs, 1'000'000});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.run_flows(flows));
  }
}
BENCHMARK(BM_RingFlowSimulation)->Arg(16)->Arg(64)->Arg(256);

void BM_ContractBlocks(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(1);
  DenseTensor a({0, 1}, {n, n}), b({1, 2}, {n, n}), c({0, 2}, {n, n});
  a.fill_random(rng);
  b.fill_random(rng);
  for (auto _ : state) {
    ttgt_contract_acc(a, b, IndexSet::single(1), c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_ContractBlocks)->Arg(64)->Arg(128)->Arg(256);

void BM_Characterize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        characterize_itanium(static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_Characterize)->Arg(16)->Arg(64);

/// Console reporter that also copies each run into the --json document
/// (google-benchmark's own --benchmark_out is a different schema; this
/// keeps all bench binaries on tce-bench/1).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(BenchOutput& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      out_.planner_row(json::ObjectWriter()
                   .field("name", r.benchmark_name())
                   .field("iterations", r.iterations)
                   .field("real_time_ns", r.GetAdjustedRealTime())
                   .field("cpu_time_ns", r.GetAdjustedCPUTime())
                   .field("opt_wall_ms", r.GetAdjustedRealTime() / 1e6)
                   .field("threads", g_threads));
    }
  }

 private:
  BenchOutput& out_;
};

}  // namespace

int main(int argc, char** argv) {
  g_threads = take_threads_arg(argc, argv);  // strips --threads
  BenchOutput out("micro", argc, argv);      // strips --json before gbench
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  run_kernel_sweep(out);
  CollectingReporter reporter(out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  out.finish();
  return 0;
}
