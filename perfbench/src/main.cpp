/// \file main.cpp
/// The repository benchmark: `perfbench --workload <plan-cc|serve-zipf|
/// exec-cannon> --seed N --seconds S --trace 0|1`.  Prints the stage
/// table (traced runs), one fingerprint JSON line, and as the last line
/// the result JSON {"correct","attempted","failed","metrics"}.  See
/// README.md in this directory.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "env.hpp"
#include "report.hpp"
#include "tce/common/json.hpp"
#include "tce/common/parse.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<plan-cc|serve-zipf|exec-cannon> [--seed N] [--seconds S] "
               "[--trace 0|1] [--socket-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t uint_arg(std::string_view flag, const char* text,
                       std::uint64_t lo, std::uint64_t hi) {
  const std::optional<std::uint64_t> v = tce::parse_u64_in(text, lo, hi);
  if (!v.has_value()) {
    usage(std::string(flag) + " needs an integer in [" + std::to_string(lo) +
          ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = uint_arg(flag, value, 0, UINT64_MAX / 2000000);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(uint_arg(flag, value, 1, 600));
    } else if (flag == "--trace") {
      opts.trace = uint_arg(flag, value, 0, 1) == 1;
    } else if (flag == "--socket-dir") {
      opts.socket_dir = value;
    } else {
      usage("unknown flag '" + std::string(flag) + "'");
    }
  }

  // The host's speed right now, for reading results from a shared
  // machine whose speed drifts (README.md, "Noise").
  const double host_fma_gflops = measure_fma_peak_gflops(0.05);
  WorkloadResult r;
  try {
    if (workload == "plan-cc") {
      r = run_plan_cc(opts);
    } else if (workload == "serve-zipf") {
      r = run_serve_zipf(opts);
    } else if (workload == "exec-cannon") {
      r = run_exec_cannon(opts);
    } else {
      usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s set-up failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  r.settings["host_fma_gflops"] = tce::json::number(host_fma_gflops);
  for (const std::string& why : r.failures) {
    std::fprintf(stderr, "failed op: %s\n", why.c_str());
  }

  // Report exactly the metrics BENCHMARK.json lists for this mode.
  WorkloadResult out;
  out.attempted = r.attempted;
  out.failed = r.failed;
  if (opts.trace) {
    for (const LayerMetric& m : per_layer_metrics()) {
      out.metrics[m.name] = r.metrics.at(m.name);
    }
  } else {
    for (const std::string& name : end_to_end_metrics()) {
      out.metrics[name] = r.metrics.at(name);
    }
  }
  std::fputs(r.text.c_str(), stdout);
  std::printf("%s\n",
              fingerprint_json(workload, opts.seed, opts.trace, r.settings)
                  .c_str());
  std::printf("%s\n", result_json(out).c_str());
  return 0;
}
