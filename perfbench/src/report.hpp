#pragma once
/// \file report.hpp
/// Shared pieces of the benchmark program: run options, latency samples,
/// the per-layer stage table, process counters and the result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics with the registry and stage timers off;
  /// true: per-layer metrics (stage table, registry counters).
  bool trace = false;
  /// How often set-up runs; setup_s reports the median.
  int setup_repeats = 3;
  /// Directory for the serving workload's Unix socket.
  std::string socket_dir = ".";
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload returns: outcome counts, every metric by name, and
/// human-readable text (stage table, fingerprint) printed before the
/// result line.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra fingerprint fields (thread counts, cache capacity, ...).
  std::map<std::string, std::string> settings;
  std::string text;
  /// The traced run's stage table rows (self seconds), unattributed_s
  /// excluded; with it they add up to trace.wall_s.
  std::vector<std::pair<std::string, double>> stages;
  /// First failure messages (bounded), for the log.
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one failed op (message kept for the first few).
  void fail(const std::string& why);
};

/// Nearest-rank quantile of \p sorted (ascending); 0 when empty.
double quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample.
double median(std::vector<double> values);

/// Named wall-time accumulators for the traced run's stage table.  Rows
/// are self times of disjoint stages; unattributed_s is whatever the
/// wall time holds beyond their sum, so rows + unattributed == wall.
class StageTable {
 public:
  void add(const std::string& stage, double seconds);
  double sum() const;
  const std::vector<std::pair<std::string, double>>& rows() const {
    return rows_;
  }
  /// wall − Σ rows.
  double unattributed(double wall_s) const { return wall_s - sum(); }
  /// Fixed-width table with one line per stage, the unattributed row
  /// and the total, each with its share of \p wall_s.
  std::string render(const std::string& title, double wall_s) const;

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// This process's user + system CPU seconds so far.
double cpu_seconds();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// One completed op: when it finished (now_s()), how long it took, and
/// its class (problem or reply kind) for like-for-like comparisons.
struct OpSample {
  double end_s = 0;
  double ms = 0;
  int cls = 0;
};

/// Equal time slices the untraced window is cut into.  Throughput and
/// latency percentiles are taken per slice and reported as the median
/// over slices, so a burst of load from elsewhere on the machine that
/// covers less than half the window does not move them.
inline constexpr int kSlices = 5;

/// The end-to-end metrics every workload reports from its untraced ops
/// in the window [start_s, start_s + window_s).
void set_end_to_end(WorkloadResult& r, const std::vector<OpSample>& ops,
                    double start_s, double window_s, double setup_s);

/// Latencies (ms) of \p ops, sorted ascending.
std::vector<double> sorted_ms(const std::vector<OpSample>& ops);

/// Tracing overhead in percent: the traced ops' total time over what
/// the same ops cost untraced, class by class (each traced op is priced
/// at the untraced mean of its class).
double overhead_pct(const std::vector<OpSample>& untraced,
                    const std::vector<OpSample>& traced);

/// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_metrics();

/// One per-layer metric the traced run reports.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.  A traced run of
/// any workload reports all of them; layers the workload does not
/// exercise read 0.
const std::vector<LayerMetric>& per_layer_metrics();

/// Copies the obs registry's counters into \p r's per-layer metrics
/// (opt.*, serve.cache.*, simnet.*, kernel.*, cannon.phase_s), counts
/// divided by the \p ops the traced window ran, and derives the ratios
/// (kept ÷ candidates, extrapolations ÷ lookups, hits ÷ lookups).
void set_registry_metrics(WorkloadResult& r, double ops);

/// Adds the traced run's shared rows: the stage table's rows and
/// unattributed_s, trace.wall_s, proc.cpu_util (CPU seconds ÷ wall
/// seconds), trace.ops and the tracing overhead of \p traced over
/// \p untraced, then zeroes every per-layer metric still unset and
/// appends the rendered table to r.text.
void finish_traced(WorkloadResult& r, const StageTable& stages,
                   const std::string& title, double wall_s, double cpu_util,
                   const std::vector<OpSample>& untraced,
                   const std::vector<OpSample>& traced);

/// Renders the final result line: {"correct","attempted","failed",
/// "metrics"} with every metric's value and unit.
std::string result_json(const WorkloadResult& r);

}  // namespace perfbench
