// Tests for tce/obs: the metrics registry (bucketed histograms,
// quantiles, cross-thread merge), the structured event log and flight
// recorder, the Prometheus/JSON exporters, the Chrome/Perfetto
// trace-event emitter, and the "no-op mode is allocation-free"
// guarantee the instrumented hot loops rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "tce/common/json.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/exporters.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/simnet/network.hpp"

// ------------------------------------------------- allocation counting
//
// Replace the global allocator with a counting pass-through so the
// no-op-mode test below can assert that disabled instrumentation never
// touches the heap.  This affects only this test binary.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs `new` expressions inlined from other TUs (gtest factories)
// with these replacements and cannot see that the matching operator new
// below is malloc-backed, so it reports a spurious mismatched-new-delete
// under -fsanitize builds.  The pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace tce {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// ------------------------------------------------------------- metrics

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::metrics_reset();
    obs::metrics_enable(true);
  }
  void TearDown() override {
    obs::metrics_enable(false);
    obs::metrics_reset();
  }
};

TEST_F(MetricsTest, CountersAccumulate) {
  obs::count("t.counter");
  obs::count("t.counter", 4);
  EXPECT_EQ(obs::counter_value("t.counter"), 5u);
  const auto snap = obs::metrics_snapshot();
  ASSERT_TRUE(snap.contains("t.counter"));
  EXPECT_EQ(snap.at("t.counter").kind, obs::Metric::Kind::kCounter);
  EXPECT_EQ(snap.at("t.counter").total, 5u);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  obs::gauge("t.gauge", 1.5);
  obs::gauge("t.gauge", -3.25);
  const auto snap = obs::metrics_snapshot();
  ASSERT_TRUE(snap.contains("t.gauge"));
  EXPECT_EQ(snap.at("t.gauge").kind, obs::Metric::Kind::kGauge);
  EXPECT_DOUBLE_EQ(snap.at("t.gauge").last, -3.25);
}

TEST_F(MetricsTest, HistogramTracksCountSumMinMax) {
  for (double v : {3.0, 1.0, 2.0}) obs::observe("t.hist", v);
  const auto snap = obs::metrics_snapshot();
  ASSERT_TRUE(snap.contains("t.hist"));
  const obs::Metric& m = snap.at("t.hist");
  EXPECT_EQ(m.kind, obs::Metric::Kind::kHistogram);
  EXPECT_EQ(m.count, 3u);
  EXPECT_DOUBLE_EQ(m.sum, 6.0);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 3.0);
}

TEST_F(MetricsTest, DisabledRegistryRecordsNothing) {
  obs::metrics_enable(false);
  obs::count("t.off");
  obs::gauge("t.off.g", 1);
  obs::observe("t.off.h", 1);
  EXPECT_EQ(obs::counter_value("t.off"), 0u);
  EXPECT_TRUE(obs::metrics_snapshot().empty());
}

TEST_F(MetricsTest, ResetClears) {
  obs::count("t.counter", 7);
  obs::metrics_reset();
  EXPECT_EQ(obs::counter_value("t.counter"), 0u);
  EXPECT_TRUE(obs::metrics_snapshot().empty());
  EXPECT_TRUE(obs::metrics_enabled()) << "reset must not flip the flag";
}

TEST_F(MetricsTest, JsonRendersEveryKindAndParsesBack) {
  obs::count("t.counter", 5);
  obs::gauge("t.gauge", 2.5);
  obs::observe("t.hist", 4.0);
  const json::Value doc = json::parse(obs::metrics_json());
  ASSERT_EQ(doc.kind, json::Value::Kind::kObject);
  EXPECT_EQ(doc.at("t.counter").integer, 5u);
  EXPECT_DOUBLE_EQ(doc.at("t.gauge").number, 2.5);
  const json::Value& h = doc.at("t.hist");
  EXPECT_EQ(h.at("count").integer, 1u);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 4.0);
  EXPECT_DOUBLE_EQ(h.at("min").number, 4.0);
  EXPECT_DOUBLE_EQ(h.at("max").number, 4.0);
}

TEST_F(MetricsTest, TableListsNames) {
  obs::count("t.counter", 5);
  const std::string table = obs::metrics_table();
  EXPECT_NE(table.find("t.counter"), std::string::npos);
  EXPECT_NE(table.find("5"), std::string::npos);
}

// ------------------------------------------- bucketed histograms

TEST(MetricBuckets, EveryValueLandsInsideItsBucketBounds) {
  for (double v : {1e-9, 0.01, 0.5, 0.75, 1.0, 1.5, 2.0, 100.0, 1e6}) {
    const int i = obs::Metric::bucket_index(v);
    EXPECT_GE(v, obs::Metric::bucket_lower(i)) << v;
    EXPECT_LT(v, obs::Metric::bucket_upper(i)) << v;
  }
  // Powers of two sit on bucket lower bounds (half-open ranges).
  EXPECT_DOUBLE_EQ(obs::Metric::bucket_lower(obs::Metric::bucket_index(1.0)),
                   1.0);
  EXPECT_DOUBLE_EQ(obs::Metric::bucket_upper(obs::Metric::bucket_index(1.0)),
                   2.0);
}

TEST(MetricBuckets, UnderAndOverflowClampIntoEndBuckets) {
  EXPECT_EQ(obs::Metric::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Metric::bucket_index(-5.0), 0);
  EXPECT_EQ(obs::Metric::bucket_index(1e-300), 0);
  EXPECT_EQ(obs::Metric::bucket_index(1e300),
            obs::Metric::kBuckets - 1);
}

TEST_F(MetricsTest, QuantilePointMassIsExact) {
  for (int i = 0; i < 100; ++i) obs::observe("t.q.point", 7.0);
  const obs::Metric m = obs::metrics_snapshot().at("t.q.point");
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 7.0);
}

TEST_F(MetricsTest, QuantileUniformWithinOneBucketBoundary) {
  for (int v = 1; v <= 1000; ++v) {
    obs::observe("t.q.uniform", static_cast<double>(v));
  }
  const obs::Metric m = obs::metrics_snapshot().at("t.q.uniform");
  // The estimate is the rank bucket's upper bound clamped into
  // [min, max]: never below the true quantile, never more than one
  // log2 bucket (a factor of two) above it.
  const double p50 = m.quantile(0.5);   // true 500
  const double p99 = m.quantile(0.99);  // true 990
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 990.0);
  EXPECT_LE(p99, 1000.0);  // clamped into the observed range
}

TEST_F(MetricsTest, QuantileTwoModeSeparatesTheModes) {
  for (int i = 0; i < 100; ++i) obs::observe("t.q.modes", 1.0);
  for (int i = 0; i < 100; ++i) obs::observe("t.q.modes", 100.0);
  const obs::Metric m = obs::metrics_snapshot().at("t.q.modes");
  // p50 falls in the low mode's bucket ([1,2), upper bound 2), p99 in
  // the high mode's — clamped to the exact max, so it is exact here.
  EXPECT_GE(m.quantile(0.5), 1.0);
  EXPECT_LE(m.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.99), 100.0);
}

TEST_F(MetricsTest, EmptyHistogramQuantileIsZero) {
  obs::Metric m;
  m.kind = obs::Metric::Kind::kHistogram;
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 0.0);
}

TEST_F(MetricsTest, ConcurrentObserveMergesExactly) {
  // Satellite guarantee (docs/OBSERVABILITY.md): after N threads
  // observe into one name concurrently, the merged snapshot's count
  // equals both the number of observations made and the sum of its
  // bucket counts — the stripe merge loses nothing.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::observe("t.conc", static_cast<double>((t + i) % 64 + 1));
        obs::count("t.conc.counter");
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const auto snap = obs::metrics_snapshot();
  const obs::Metric& m = snap.at("t.conc");
  EXPECT_EQ(m.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : m.buckets) bucket_sum += b;
  EXPECT_EQ(m.count, bucket_sum);
  EXPECT_GE(m.min, 1.0);
  EXPECT_LE(m.max, 64.0);
  EXPECT_EQ(snap.at("t.conc.counter").total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, HistogramJsonCarriesQuantilesAndSparseBuckets) {
  for (double v : {1.0, 1.5, 100.0}) obs::observe("t.hist", v);
  const json::Value doc = json::parse(obs::metrics_json());
  const json::Value& h = doc.at("t.hist");
  EXPECT_EQ(h.at("count").integer, 3u);
  EXPECT_GT(h.at("p50").number, 0.0);
  EXPECT_GE(h.at("p99").number, h.at("p50").number);
  EXPECT_GE(h.at("p90").number, h.at("p50").number);
  const json::Value& buckets = h.at("buckets");
  ASSERT_EQ(buckets.kind, json::Value::Kind::kArray);
  ASSERT_EQ(buckets.array.size(), 2u) << "1.0 and 1.5 share a bucket";
  std::uint64_t total = 0;
  for (const json::Value& pair : buckets.array) {
    ASSERT_EQ(pair.array.size(), 2u);
    total += pair.array[1].integer;
  }
  EXPECT_EQ(total, 3u);
}

TEST_F(MetricsTest, TableRendersHistogramQuantiles) {
  for (double v : {1.0, 2.0, 3.0}) obs::observe("t.hist", v);
  const std::string table = obs::metrics_table();
  EXPECT_NE(table.find("p50="), std::string::npos);
  EXPECT_NE(table.find("p99="), std::string::npos);
}

// ------------------------------------------------------- exporters

TEST_F(MetricsTest, PrometheusExpositionIsWellFormed) {
  obs::count("t.ctr", 5);
  obs::gauge("t.gauge", 2.5);
  for (double v : {0.75, 1.5, 3.0}) obs::observe("t.hist", v);
  const std::string prom = obs::metrics_prometheus();

  // Counters get the _total suffix; HELP carries the dotted name.
  EXPECT_NE(prom.find("# HELP tce_t_ctr_total t.ctr\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tce_t_ctr_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tce_t_ctr_total 5\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tce_t_gauge gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tce_t_hist histogram\n"), std::string::npos);

  // Histogram: cumulative buckets ending in +Inf == count, plus
  // _sum/_count.
  EXPECT_NE(prom.find("tce_t_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tce_t_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tce_t_hist_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tce_t_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tce_t_hist_count 3\n"), std::string::npos);
  EXPECT_NE(prom.find("tce_t_hist_sum "), std::string::npos);
}

TEST_F(MetricsTest, MetricsSnapshotJsonSchema) {
  obs::count("t.ctr", 2);
  const json::Value doc = json::parse(obs::metrics_snapshot_json());
  EXPECT_EQ(doc.at("schema").string, "tce-metrics/1");
  EXPECT_EQ(doc.at("metrics").at("t.ctr").integer, 2u);
}

TEST_F(MetricsTest, WriteMetricsFilePicksFormatByExtension) {
  obs::count("t.ctr", 1);
  const std::string prom_path = temp_path("obs_metrics.prom");
  const std::string json_path = temp_path("obs_metrics.json");
  ASSERT_TRUE(obs::write_metrics_file(prom_path));
  ASSERT_TRUE(obs::write_metrics_file(json_path));
  EXPECT_NE(slurp(prom_path).find("# TYPE tce_t_ctr_total counter"),
            std::string::npos);
  EXPECT_EQ(json::parse(slurp(json_path)).at("schema").string,
            "tce-metrics/1");

  std::string err;
  EXPECT_FALSE(
      obs::write_metrics_file("/nonexistent-dir/x.prom", &err));
  EXPECT_FALSE(err.empty());
}

TEST(Metrics, ScopedMetricsRestoresPreviousState) {
  obs::metrics_enable(false);
  {
    obs::ScopedMetrics scoped;
    EXPECT_TRUE(obs::metrics_enabled());
    obs::count("t.scoped");
    EXPECT_EQ(obs::counter_value("t.scoped"), 1u);
  }
  EXPECT_FALSE(obs::metrics_enabled());
}

// ------------------------------------------- structured event log

/// Splits a JSONL blob into its non-empty lines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(Log, LevelNamesRoundTrip) {
  using obs::LogLevel;
  EXPECT_STREQ(obs::log_level_name(LogLevel::kDebug), "debug");
  EXPECT_STREQ(obs::log_level_name(LogLevel::kError), "error");
  EXPECT_EQ(obs::parse_log_level("warn", LogLevel::kDebug),
            LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("warning", LogLevel::kDebug),
            LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("nonsense", LogLevel::kError),
            LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("", LogLevel::kInfo), LogLevel::kInfo);
}

TEST(Log, FileSinkWritesSchemaLinesAndFiltersByLevel) {
  const std::string path = temp_path("obs_log.jsonl");
  std::remove(path.c_str());
  obs::log_open(path, obs::LogLevel::kInfo);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kDebug));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kInfo));
  obs::log_event(obs::LogLevel::kDebug, "test", "dropped");
  obs::log_event(obs::LogLevel::kInfo, "test", "kept",
                 json::ObjectWriter().field("n", 3).str());
  obs::log_event(obs::LogLevel::kError, "test", "bad");
  obs::log_close();
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));

  const std::vector<std::string> lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 2u) << "debug line filtered out";
  const json::Value first = json::parse(lines[0]);
  EXPECT_EQ(first.at("schema").string, "tce-log/1");
  EXPECT_EQ(first.at("level").string, "info");
  EXPECT_EQ(first.at("component").string, "test");
  EXPECT_EQ(first.at("event").string, "kept");
  EXPECT_EQ(first.at("fields").at("n").integer, 3u);
  EXPECT_GT(first.at("ts_us").integer, 0u);
  const json::Value second = json::parse(lines[1]);
  EXPECT_EQ(second.at("level").string, "error");
  EXPECT_GE(second.at("ts_us").integer, first.at("ts_us").integer);
}

TEST(Log, FlightRecorderKeepsTheLastEventsOldestFirst) {
  obs::flight_recorder_clear();
  obs::flight_recorder_enable(true);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kDebug))
      << "the recorder captures every level";
  for (int i = 0; i < 100; ++i) {
    std::string event = "e";
    event += std::to_string(i);
    obs::log_event(obs::LogLevel::kInfo, "test", event);
  }
  const std::string dump = obs::flight_recorder_dump();
  obs::flight_recorder_enable(false);
  obs::flight_recorder_clear();

  const std::vector<std::string> lines = lines_of(dump);
  ASSERT_EQ(lines.size(), obs::kFlightRecorderCapacity);
  const int first = 100 - static_cast<int>(obs::kFlightRecorderCapacity);
  EXPECT_EQ(json::parse(lines.front()).at("event").string,
            "e" + std::to_string(first));
  EXPECT_EQ(json::parse(lines.back()).at("event").string, "e99");
}

TEST(Log, FlightRecorderClearAndDisableDropEvents) {
  obs::flight_recorder_clear();
  obs::flight_recorder_enable(true);
  obs::log_event(obs::LogLevel::kInfo, "test", "buffered");
  obs::flight_recorder_clear();
  EXPECT_TRUE(obs::flight_recorder_dump().empty());
  obs::flight_recorder_enable(false);
  obs::log_event(obs::LogLevel::kError, "test", "ignored");
  EXPECT_TRUE(obs::flight_recorder_dump().empty());
}

// --------------------------------------------------- no-op-mode cost

TEST(ObsNoop, DisabledInstrumentationDoesNotAllocate) {
  obs::metrics_enable(false);
  ASSERT_FALSE(obs::metrics_enabled());
  ASSERT_FALSE(obs::trace_enabled());
  ASSERT_FALSE(obs::log_enabled(obs::LogLevel::kError));

  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::count("noop.counter");
    obs::count("noop.counter", 3);
    obs::gauge("noop.gauge", i);
    obs::observe("noop.hist", i);
    obs::log_event(obs::LogLevel::kError, "noop", "event");
    obs::trace_instant("noop", "test");
    obs::trace_sim_complete("noop", "test", 1, 0.0, 1.0);
    obs::sim_advance(0.0);
    obs::TraceSpan span("noop", "test");
  }
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

// --------------------------------------------------------------- trace

TEST(Trace, WellFormedBalancedAndOrdered) {
  const std::string path = temp_path("obs_trace_basic.json");
  obs::trace_start(path);
  {
    obs::TraceSpan outer("outer", "test");
    { obs::TraceSpan inner("inner", "test"); }
    obs::trace_instant("tick", "test",
                       json::ObjectWriter().field("k", 1).str());
  }
  obs::trace_complete("manual", "test", 0, 5);
  obs::trace_sim_complete("simstep", "test", 3, 0.0, 1.5);
  obs::trace_sim_instant("simmark", "test", 3, 0.5);
  obs::trace_stop();
  EXPECT_FALSE(obs::trace_enabled());

  const json::Value doc = json::parse(slurp(path));
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const json::Value& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, json::Value::Kind::kArray);

  int begins = 0, ends = 0, metadata = 0;
  std::uint64_t last_begin_ts = 0;
  for (const json::Value& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    EXPECT_GE(e.at("ts").number, 0.0);
    if (ph == "E") {
      // End events close the innermost span; they carry no name.
      ++ends;
      continue;
    }
    ASSERT_FALSE(e.at("name").string.empty());
    if (ph == "B") {
      // Begin events are emitted live, so their timestamps are
      // monotone in buffer order.
      EXPECT_GE(e.at("ts").integer, last_begin_ts);
      last_begin_ts = e.at("ts").integer;
      ++begins;
    } else if (ph == "X") {
      EXPECT_GE(e.at("dur").number, 0.0);
    } else {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.at("s").string, "t");
    }
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(metadata, 2) << "one process_name per track";

  // Named events all present.
  for (const char* want :
       {"outer", "inner", "tick", "manual", "simstep", "simmark"}) {
    bool found = false;
    for (const json::Value& e : events.array) {
      const json::Value* name = e.find("name");
      found = found || (name != nullptr && name->string == want);
    }
    EXPECT_TRUE(found) << want;
  }
}

TEST(Trace, RestartClearsBufferAndClocks) {
  const std::string path1 = temp_path("obs_trace_first.json");
  const std::string path2 = temp_path("obs_trace_second.json");
  obs::trace_start(path1);
  obs::trace_instant("only-in-first", "test");
  obs::sim_advance(2.0);
  obs::trace_stop();

  obs::trace_start(path2);
  EXPECT_DOUBLE_EQ(obs::sim_now_s(), 0.0);
  obs::trace_instant("only-in-second", "test");
  obs::trace_stop();

  const std::string second = slurp(path2);
  EXPECT_EQ(second.find("only-in-first"), std::string::npos);
  EXPECT_NE(second.find("only-in-second"), std::string::npos);
}

TEST(Trace, SimClockCursorAdvances) {
  obs::trace_start(temp_path("obs_trace_cursor.json"));
  EXPECT_DOUBLE_EQ(obs::sim_now_s(), 0.0);
  obs::sim_advance(1.25);
  obs::sim_advance(0.75);
  EXPECT_DOUBLE_EQ(obs::sim_now_s(), 2.0);
  obs::trace_stop();
}

TEST(Trace, OptimizerEmitsDpNodeSpans) {
  obs::trace_start(temp_path("obs_trace_opt.json"));
  FormulaSequence seq = parse_formula_sequence(
      "index i, j, k = 64\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  optimize(tree, model);
  const json::Value doc = json::parse(obs::trace_json());
  obs::trace_stop();

  bool saw_span = false, saw_node = false;
  for (const json::Value& e : doc.at("traceEvents").array) {
    const json::Value* name_v = e.find("name");
    if (name_v == nullptr) continue;
    const std::string& name = name_v->string;
    saw_span = saw_span || (name == "optimize" && e.at("ph").string == "B");
    if (name.rfind("dp.node", 0) == 0) {
      saw_node = true;
      EXPECT_EQ(e.at("ph").string, "X");
      const json::Value& args = e.at("args");
      EXPECT_GE(args.at("candidates").integer, 1u);
      EXPECT_GE(args.at("kept").integer, 1u);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_node);
}

TEST(Trace, SimnetEmitsPhaseAndFlowEvents) {
  obs::trace_start(temp_path("obs_trace_net.json"));
  Network net(ClusterSpec::itanium2003(2));
  Phase phase;
  phase.label = "test phase";
  phase.compute.push_back({0, 1'000'000'000});
  phase.flows.push_back({0, 2, 1'000'000});
  phase.flows.push_back({1, 3, 2'000'000});
  net.run_phase(phase);
  const json::Value doc = json::parse(obs::trace_json());
  obs::trace_stop();

  bool saw_phase = false, saw_compute = false;
  int flows = 0;
  for (const json::Value& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "M") continue;
    EXPECT_EQ(e.at("pid").integer, 2u) << "simnet events live on pid 2";
    const std::string& name = e.at("name").string;
    if (name == "test phase") {
      saw_phase = true;
      EXPECT_EQ(e.at("args").at("flows").integer, 2u);
    }
    saw_compute = saw_compute || name == "compute";
    if (name.rfind("flow ", 0) == 0) {
      ++flows;
      const json::Value& args = e.at("args");
      EXPECT_GE(args.at("allocated_bw").number, 0.0);
      EXPECT_FALSE(args.at("bottleneck").string.empty());
    }
  }
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_compute);
  EXPECT_EQ(flows, 2);
}

TEST(Trace, DisabledEmitterBuffersNothing) {
  ASSERT_FALSE(obs::trace_enabled());
  obs::trace_instant("dropped", "test");
  EXPECT_EQ(obs::trace_now_us(), 0u);
}

}  // namespace
}  // namespace tce
