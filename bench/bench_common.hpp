#pragma once
/// \file bench_common.hpp
/// Shared pieces for the benchmark harnesses (bench_paper, bench_micro,
/// bench_serve): the paper's §4 workload, argument handling and the
/// tce-bench/1 emitter.  bench_paper regenerates the paper's evaluation,
/// one scenario per run; see DESIGN.md's per-experiment index.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/parse.hpp"
#include "tce/common/strings.hpp"
#include "tce/common/thread_pool.hpp"
#include "tce/common/timer.hpp"
#include "tce/common/units.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/exporters.hpp"
#include "tce/obs/metrics.hpp"

namespace tce::bench {

/// The paper's §4 input (NWChem-representative contraction sequence).
inline constexpr const char* kPaperProgram = R"(
  index a, b, c, d = 480
  index e, f = 64
  index i, j, k, l = 32
  T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
  T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
  S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
)";

/// The paper's per-node memory limit (4 GB nodes).
inline constexpr std::uint64_t kNodeLimit4GB = 4ull * 1000 * 1000 * 1000;

inline ContractionTree paper_tree() {
  return ContractionTree::from_sequence(
      parse_formula_sequence(kPaperProgram));
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Consumes the first `<flag> <value>` pair from argv and returns the
/// value, or std::nullopt when the flag is absent.  A flag without a
/// value prints a usage message and exits 2.  Every bench option goes
/// through here, so reject_unknown_args() sees only what no driver
/// consumed.
inline std::optional<std::string> take_arg(int& argc, char** argv,
                                           std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != flag) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %.*s needs an argument\n",
                   static_cast<int>(flag.size()), flag.data());
      std::exit(2);
    }
    std::string value = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return value;
  }
  return std::nullopt;
}

/// Consumes a `--<flag> N` pair from argv; returns \p fallback when the
/// flag is absent.  The value is parsed with the checked decimal parser
/// (tce/common/parse.hpp) and must land in [0, \p max]: garbage,
/// overflow or out-of-range values print a usage message and exit 2
/// instead of silently becoming 0 the way strtoul-with-no-end-check
/// used to (which turned `--threads garbage` into "all hardware
/// threads" and tainted recorded bench rows).
inline std::uint64_t take_uint_arg(int& argc, char** argv,
                                   std::string_view flag,
                                   std::uint64_t fallback,
                                   std::uint64_t max = UINT64_MAX) {
  const std::optional<std::string> text = take_arg(argc, argv, flag);
  if (!text.has_value()) return fallback;
  const std::optional<std::uint64_t> n = parse_u64_in(*text, 0, max);
  if (!n.has_value()) {
    std::fprintf(stderr,
                 "error: %.*s needs an integer in [0, %llu], got '%s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<unsigned long long>(max), text->c_str());
    std::exit(2);
  }
  return *n;
}

/// Consumes a `--threads N` pair from argv (same protocol as
/// BenchOutput's --json): the planner thread count for the run, 0
/// (default, also the OptimizerConfig default) = all hardware threads,
/// 1 = sequential.  Drivers pass the value into
/// OptimizerConfig::threads and stamp `threads` plus the measured
/// `opt_wall_ms` on every emitted row, so a bench JSON document records
/// the parallelism its timings were taken at (docs/FORMATS.md).  A
/// non-numeric or out-of-range count exits 2 with a usage message.
inline unsigned take_threads_arg(int& argc, char** argv) {
  return static_cast<unsigned>(take_uint_arg(argc, argv, "--threads", 0,
                                             ThreadPool::kMaxThreads));
}

/// Machine-readable bench output (the `tce-bench/1` schema; see
/// docs/FORMATS.md).  Construct at the top of main with argc/argv: a
/// `--json <file>` pair is consumed (removed from argv) and turns the
/// emitter on, which also enables the metrics registry so the document
/// carries the run's counters.  A `--metrics <file>` pair is likewise
/// consumed and additionally writes the registry as its own file at
/// finish() — Prometheus text, or tce-metrics/1 when the path ends in
/// .json (docs/FORMATS.md); --metrics alone (without --json) also
/// enables the registry.  Call row() (or planner_row(), which stamps
/// the run's p50/p99 search latency) once per result row, and finish()
/// before returning.
///
/// Without --json or --metrics the class is inert: the human tables
/// remain the only output and the metrics registry stays off.
class BenchOutput {
 public:
  BenchOutput(std::string bench, int& argc, char** argv)
      : bench_(std::move(bench)) {
    path_ = take_arg(argc, argv, "--json").value_or("");
    metrics_path_ = take_arg(argc, argv, "--metrics").value_or("");
    if (enabled() || !metrics_path_.empty()) {
      obs::metrics_reset();
      obs::metrics_enable(true);
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Appends one result row (ignored when not enabled).
  void row(const json::ObjectWriter& fields) {
    if (enabled()) rows_.element(fields.str());
  }

  /// Appends one planner result row: \p fields plus `p50_ms`/`p99_ms`
  /// quantiles of the per-search wall time recorded so far (the
  /// opt.search_wall_s histogram — every optimize() call this process
  /// made).  Planner drivers use this so every tce-bench/1 row carries
  /// the latency distribution behind its timing columns.
  void planner_row(json::ObjectWriter fields) {
    if (!enabled()) return;
    const auto snap = obs::metrics_snapshot();
    const auto it = snap.find("opt.search_wall_s");
    if (it != snap.end() && it->second.count > 0) {
      fields.field("p50_ms", it->second.quantile(0.5) * 1e3);
      fields.field("p99_ms", it->second.quantile(0.99) * 1e3);
    }
    rows_.element(fields.str());
  }

  /// Writes the document (and the --metrics file when requested).
  /// Exits the process with an error when an output file cannot be
  /// written, so CI catches a bad path.
  void finish() {
    if (!metrics_path_.empty()) {
      std::string err;
      if (!obs::write_metrics_file(metrics_path_, &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        std::exit(2);
      }
      std::printf("wrote %s\n", metrics_path_.c_str());
    }
    if (!enabled()) return;
    json::ObjectWriter doc;
    doc.field("schema", "tce-bench/1");
    doc.field("bench", bench_);
    doc.raw("rows", rows_.str());
    doc.raw("metrics", obs::metrics_json());
    std::ofstream out(path_);
    out << doc.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path_.c_str());
      std::exit(2);
    }
    std::printf("wrote %s\n", path_.c_str());
  }

 private:
  std::string bench_;
  std::string path_;
  std::string metrics_path_;
  json::ArrayWriter rows_;
};

/// Exits 2 when argv still holds an argument once the driver has taken
/// its options, so a misspelt or repeated flag (`--jsn out.json`) fails
/// instead of running without the output it asked for.
inline void reject_unknown_args(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[1]);
  std::exit(2);
}

}  // namespace tce::bench
