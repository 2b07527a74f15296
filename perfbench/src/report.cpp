#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "tce/common/json.hpp"
#include "tce/obs/metrics.hpp"

namespace perfbench {

void WorkloadResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

void StageTable::add(const std::string& stage, double seconds) {
  for (auto& [name, total] : rows_) {
    if (name == stage) {
      total += seconds;
      return;
    }
  }
  rows_.emplace_back(stage, seconds);
}

double StageTable::sum() const {
  double s = 0;
  for (const auto& row : rows_) s += row.second;
  return s;
}

std::string StageTable::render(const std::string& title,
                               double wall_s) const {
  std::string out = title + "\n";
  char line[160];
  const auto emit = [&](const std::string& name, double s) {
    std::snprintf(line, sizeof(line), "  %-28s %12.6f s  %6.2f%%\n",
                  name.c_str(), s, wall_s > 0 ? 100 * s / wall_s : 0.0);
    out += line;
  };
  for (const auto& [name, s] : rows_) emit(name, s);
  emit("unattributed_s", unattributed(wall_s));
  emit("= wall", wall_s);
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> sorted_ms(const std::vector<OpSample>& ops) {
  std::vector<double> ms;
  ms.reserve(ops.size());
  for (const OpSample& op : ops) ms.push_back(op.ms);
  std::sort(ms.begin(), ms.end());
  return ms;
}

double overhead_pct(const std::vector<OpSample>& untraced,
                    const std::vector<OpSample>& traced) {
  std::map<int, std::pair<double, double>> base;  // class → (sum, count)
  for (const OpSample& op : untraced) {
    base[op.cls].first += op.ms;
    base[op.cls].second += 1;
  }
  double traced_ms = 0, expected_ms = 0;
  for (const OpSample& op : traced) {
    const auto it = base.find(op.cls);
    if (it == base.end()) continue;
    traced_ms += op.ms;
    expected_ms += it->second.first / it->second.second;
  }
  return expected_ms > 0 ? 100 * (traced_ms / expected_ms - 1) : 0;
}

void set_end_to_end(WorkloadResult& r, const std::vector<OpSample>& ops,
                    double start_s, double window_s, double setup_s) {
  const double slice_s = window_s / kSlices;
  std::vector<std::vector<OpSample>> slices(kSlices);
  for (const OpSample& op : ops) {
    const auto k = static_cast<int>((op.end_s - start_s) / slice_s);
    slices[static_cast<std::size_t>(std::clamp(k, 0, kSlices - 1))]
        .push_back(op);
  }
  std::vector<double> rate, p50, p99;
  std::size_t smallest = ops.size();
  for (const std::vector<OpSample>& slice : slices) {
    const std::vector<double> ms = sorted_ms(slice);
    rate.push_back(static_cast<double>(ms.size()) / slice_s);
    p50.push_back(quantile(ms, 0.50));
    p99.push_back(quantile(ms, 0.99));
    smallest = std::min(smallest, ms.size());
  }
  r.set("ops_per_s", median(rate), "1/s");
  r.set("op_p50_ms", median(p50), "ms");
  r.set("op_p99_ms", median(p99), "ms");
  r.set("success_rate",
        r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0,
        "ratio");
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MiB");
  r.settings["samples"] = std::to_string(ops.size());
  r.settings["slices"] = std::to_string(kSlices);
  r.settings["smallest_slice_samples"] = std::to_string(smallest);
  r.settings["window_s"] = tce::json::number(window_s);
}

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> kMetrics = {
      "ops_per_s", "op_p50_ms",    "op_p99_ms",
      "setup_s",   "success_rate", "peak_rss_mb"};
  return kMetrics;
}

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"expr.parse_s", "s"},
      {"expr.parse_calls", "count"},
      {"opmin.binarize_s", "s"},
      {"lint.prove_s", "s"},
      {"serve.rejected", "count/op"},
      {"core.optimize_s", "s"},
      {"core.search_wall_s", "s"},
      {"opt.node_wall_s.p50", "s"},
      {"opt.node_wall_s.p99", "s"},
      {"opt.candidates", "count/op"},
      {"opt.infeasible", "count/op"},
      {"opt.dominated", "count/op"},
      {"opt.kept", "count/op"},
      {"opt.kept_ratio", "ratio"},
      {"opt.redistributions", "count/op"},
      {"opt.curve.lookups", "count/op"},
      {"opt.curve.extrapolation_ratio", "ratio"},
      {"core.plan_json_s", "s"},
      {"core.plan_json_bytes", "bytes/op"},
      {"core.plan_comm_s", "sim_s"},
      {"verify.s", "s"},
      {"verify.rules_checked", "count/op"},
      {"serve.handle_s", "s"},
      {"serve.frame_s", "s"},
      {"serve.canonicalize_s", "s"},
      {"serve.lookup_s", "s"},
      {"serve.rename_s", "s"},
      {"serve.miss_other_s", "s"},
      {"serve.handle_other_s", "s"},
      {"serve.hit_s.p50", "s"},
      {"serve.hit_s.p99", "s"},
      {"serve.miss_s.p50", "s"},
      {"serve.miss_s.p99", "s"},
      {"serve.cache.hit", "count/op"},
      {"serve.cache.miss", "count/op"},
      {"serve.cache.evict", "count/op"},
      {"serve.hit_ratio", "ratio"},
      {"costmodel.characterize_s", "s"},
      {"simnet.flows", "count/op"},
      {"simnet.phases", "count/op"},
      {"simnet.bytes", "bytes/op"},
      {"kernel.gemm_s.p50", "s"},
      {"kernel.gemm_s.sum", "s"},
      {"kernel.tiled_calls", "count/op"},
      {"kernel.pack_bytes", "bytes/op"},
      {"kernel.gflops", "GFLOP/s"},
      {"kernel.peak_gflops", "GFLOP/s"},
      {"kernel.peak_fraction", "ratio"},
      {"cannon.run_tree_s", "s"},
      {"cannon.phase_s", "sim_s"},
      {"cannon.nonkernel_s", "s"},
      {"exec.gflops", "GFLOP/s"},
      {"check_s", "s"},
      {"proc.cpu_util", "ratio"},
      {"unattributed_s", "s"},
      {"trace.wall_s", "s"},
      {"trace.ops", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void set_registry_metrics(WorkloadResult& r, double ops) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const std::map<std::string, tce::obs::Metric> snap =
      tce::obs::metrics_snapshot();
  const auto total = [&](const char* name) {
    const auto it = snap.find(name);
    return it == snap.end() ? 0.0 : static_cast<double>(it->second.total);
  };
  const auto hist = [&](const char* name) -> const tce::obs::Metric* {
    const auto it = snap.find(name);
    return it == snap.end() ? nullptr : &it->second;
  };
  for (const char* name :
       {"opt.candidates", "opt.infeasible", "opt.dominated", "opt.kept",
        "opt.redistributions", "opt.curve.lookups", "serve.rejected",
        "serve.cache.hit", "serve.cache.miss", "serve.cache.evict",
        "simnet.flows", "simnet.phases", "kernel.tiled_calls"}) {
    r.set(name, ratio(total(name), ops), "count/op");
  }
  r.set("simnet.bytes", ratio(total("simnet.bytes"), ops), "bytes/op");
  r.set("kernel.pack_bytes", ratio(total("kernel.pack_bytes"), ops),
        "bytes/op");
  r.set("opt.kept_ratio",
        ratio(total("opt.kept"), total("opt.candidates")), "ratio");
  r.set("opt.curve.extrapolation_ratio",
        ratio(total("opt.curve.extrapolations"), total("opt.curve.lookups")),
        "ratio");
  r.set("serve.hit_ratio",
        ratio(total("serve.cache.hit"),
              total("serve.cache.hit") + total("serve.cache.miss")),
        "ratio");
  if (const tce::obs::Metric* m = hist("opt.node_wall_s")) {
    r.set("opt.node_wall_s.p50", m->quantile(0.5), "s");
    r.set("opt.node_wall_s.p99", m->quantile(0.99), "s");
  }
  if (const tce::obs::Metric* m = hist("kernel.gemm_s")) {
    r.set("kernel.gemm_s.p50", m->quantile(0.5), "s");
    r.set("kernel.gemm_s.sum", m->sum, "s");
  }
  if (const tce::obs::Metric* m = hist("cannon.phase_s")) {
    r.set("cannon.phase_s", m->sum, "sim_s");
  }
}

void finish_traced(WorkloadResult& r, const StageTable& stages,
                   const std::string& title, double wall_s, double cpu_util,
                   const std::vector<OpSample>& untraced,
                   const std::vector<OpSample>& traced) {
  for (const auto& [name, s] : stages.rows()) r.set(name, s, "s");
  r.stages = stages.rows();
  r.set("unattributed_s", stages.unattributed(wall_s), "s");
  r.set("trace.wall_s", wall_s, "s");
  r.set("proc.cpu_util", cpu_util, "ratio");
  r.set("trace.ops", static_cast<double>(traced.size()), "count");
  r.set("trace.overhead_pct", overhead_pct(untraced, traced), "%");
  for (const LayerMetric& m : per_layer_metrics()) {
    if (!r.metrics.contains(m.name)) r.set(m.name, 0, m.unit);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "tracing overhead: %.2f%% (%zu traced ops priced at the "
                "untraced mean of their class)\n",
                r.metrics["trace.overhead_pct"].value, traced.size());
  r.text += stages.render(title, wall_s) + line;
}

std::string result_json(const WorkloadResult& r) {
  tce::json::ObjectWriter metrics;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    metrics.raw(name, tce::json::ObjectWriter()
                          .field("value", v)
                          .field("unit", m.unit)
                          .str());
  }
  return tce::json::ObjectWriter()
      .field("correct", r.failed == 0 && r.attempted > 0)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .raw("metrics", metrics.str())
      .str();
}

}  // namespace perfbench
