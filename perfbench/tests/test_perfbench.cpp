// Tests of the benchmark itself: input generation is a pure function of
// the seed, traced stage tables add up to the wall time, output checks
// catch corrupted plans and replies, and BENCHMARK.json names exactly
// the metrics the benchmark prints.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "corpus.hpp"
#include "report.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/serve/server.hpp"
#include "tce/verify/verifier.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

TEST(Generator, SameSeedGivesTheSameRequestBytes) {
  EXPECT_EQ(serve_requests(5, 1, 300), serve_requests(5, 1, 300));
  EXPECT_NE(serve_requests(5, 1, 300), serve_requests(6, 1, 300));
  EXPECT_NE(serve_requests(5, 1, 300), serve_requests(5, 2, 300));
}

TEST(Generator, SameSeedGivesTheSamePlanCorpus) {
  const auto a = plan_corpus(3), b = plan_corpus(3), c = plan_corpus(4);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].mem_limit_node_bytes, b[i].mem_limit_node_bytes);
    differs |= a[i].text != c[i].text;
  }
  EXPECT_TRUE(differs);
  // The paper program is carried verbatim at the Table 1/2 settings.
  EXPECT_EQ(a[0].label, "paper-table1");
  EXPECT_EQ(a[0].text, kPaperProgram);
  EXPECT_EQ(a[0].procs, 64u);
  EXPECT_EQ(a[1].procs, 16u);
}

TEST(Generator, RespellingIsAlphaEquivalent) {
  const Program base = family_program(0, Extents{});
  tce::Rng rng(9);
  std::map<std::string, std::string> names;
  const Program spelled = respell(base, rng, &names);
  EXPECT_NE(render(base), render(spelled));
  const auto a = tce::ContractionTree::from_sequence(
      tce::parse_formula_sequence(render(base)));
  const auto b = tce::ContractionTree::from_sequence(
      tce::parse_formula_sequence(render(spelled)));
  EXPECT_EQ(a.total_flops(), b.total_flops());
  EXPECT_EQ(a.total_bytes_unfused(), b.total_bytes_unfused());
  EXPECT_EQ(names.at("T1").front(), 'Q');
  EXPECT_EQ(names.at("a").front(), 'x');
}

TEST(Zipf, RankZeroIsTheMostPopular) {
  const Zipf zipf(100, 1.0);
  tce::Rng rng(1);
  std::vector<int> hits(100);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.sample(rng)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[10]);
  EXPECT_GT(hits[10], 0);
}

TEST(StageTable, RowsPlusUnattributedEqualWall) {
  StageTable t;
  t.add("a", 0.25);
  t.add("b", 0.5);
  t.add("a", 0.125);
  ASSERT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[0].first, "a");
  EXPECT_DOUBLE_EQ(t.rows()[0].second, 0.375);
  EXPECT_DOUBLE_EQ(t.unattributed(1.0), 0.125);
  EXPECT_DOUBLE_EQ(t.sum() + t.unattributed(1.0), 1.0);
  const std::string table = t.render("title", 1.0);
  EXPECT_NE(table.find("unattributed_s"), std::string::npos);
}

TEST(Report, SlicedPercentilesIgnoreABurstInOneSlice) {
  WorkloadResult r;
  r.attempted = 1000;
  std::vector<OpSample> ops;
  for (int i = 0; i < 1000; ++i) {
    const double t = i * 0.01;  // 10 s window, 200 ops per slice
    ops.push_back({t, t < 2.0 ? 50.0 : 1.0, 0});  // first slice: 50x
  }
  set_end_to_end(r, ops, 0.0, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(r.metrics.at("op_p50_ms").value, 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("op_p99_ms").value, 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("ops_per_s").value, 100.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("success_rate").value, 1.0);
}

TEST(Report, OverheadComparesLikeWithLike) {
  // Class 1 is 10x dearer; the traced half ran more of it.  Priced per
  // class, tracing added exactly 10%.
  const std::vector<OpSample> plain = {{0, 1, 0}, {0, 10, 1}};
  const std::vector<OpSample> traced = {{0, 1.1, 0}, {0, 11, 1}, {0, 11, 1}};
  EXPECT_NEAR(overhead_pct(plain, traced), 10.0, 1e-9);
}

/// Runs \p run traced for a short window and checks that its stage
/// rows plus unattributed_s add up to trace.wall_s.
void expect_reconciled(WorkloadResult (*run)(const RunOptions&)) {
  RunOptions opts;
  opts.seconds = 2;
  opts.trace = true;
  opts.setup_repeats = 1;
  const WorkloadResult r = run(opts);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures[0]);
  ASSERT_FALSE(r.stages.empty());
  double sum = r.metrics.at("unattributed_s").value;
  for (const auto& [name, s] : r.stages) {
    EXPECT_EQ(r.metrics.at(name).value, s) << name;
    sum += s;
  }
  const double wall = r.metrics.at("trace.wall_s").value;
  EXPECT_NEAR(sum, wall, 1e-9 * wall);
  // Little time goes unexplained.
  EXPECT_LT(std::abs(r.metrics.at("unattributed_s").value), 0.05 * wall);
  for (const LayerMetric& m : per_layer_metrics()) {
    EXPECT_TRUE(r.metrics.contains(m.name)) << m.name;
  }
}

TEST(StageTable, PlanCcReconciles) { expect_reconciled(run_plan_cc); }
TEST(StageTable, ServeZipfReconciles) { expect_reconciled(run_serve_zipf); }
TEST(StageTable, ExecCannonReconciles) { expect_reconciled(run_exec_cannon); }

/// A fresh plan reply and a cache hit for one small problem.
struct ServedPair {
  std::string miss, hit;
};
ServedPair serve_twice() {
  tce::serve::ServeOptions opts;
  opts.cache_capacity = 4;
  opts.threads = 1;
  tce::serve::Server server(opts);
  const std::string program = render(family_program(1, Extents{16, 64, 16}));
  const auto request = [&](const char* id) {
    return tce::json::ObjectWriter()
        .field("schema", "tce-serve/1")
        .field("op", "plan")
        .field("id", id)
        .field("program", program)
        .field("procs", 16)
        .str();
  };
  ServedPair p;
  p.miss = server.handle(request("a"));
  p.hit = server.handle(request("b"));
  return p;
}

std::string plan_of(const std::string& reply) {
  return reply.substr(reply.find("\"plan\":") + 7,
                      reply.size() - reply.find("\"plan\":") - 8);
}

TEST(Checks, AGoodHitPasses) {
  const ServedPair p = serve_twice();
  bool hit = false;
  EXPECT_EQ(check_reply(p.miss, "a", "plan", plan_of(p.miss), &hit), "");
  EXPECT_FALSE(hit);
  EXPECT_EQ(check_reply(p.hit, "b", "plan", plan_of(p.miss), &hit), "");
  EXPECT_TRUE(hit);
}

TEST(Checks, CorruptedRepliesCountAsFailures) {
  const ServedPair p = serve_twice();
  const std::string expected = plan_of(p.miss);
  bool hit = false;
  std::string flipped = p.hit;
  flipped[flipped.size() - 20] ^= 1;
  EXPECT_NE(check_reply(flipped, "b", "plan", expected, &hit), "");
  EXPECT_NE(check_reply(p.hit.substr(0, p.hit.size() / 2), "b", "plan",
                        expected, &hit),
            "");
  EXPECT_NE(check_reply(p.hit, "wrong-id", "plan", expected, &hit), "");
  EXPECT_NE(check_reply(p.hit, "b", "infeasible", "", &hit), "");
  EXPECT_NE(check_reply("", "b", "plan", expected, &hit), "");
}

struct PaperPlan {
  tce::ContractionTree tree;
  std::unique_ptr<tce::CharacterizedModel> model;
  tce::OptimizedPlan plan;
  std::string json;
};
PaperPlan plan_table1() {
  PaperPlan p{tce::ContractionTree::from_sequence(
                  tce::parse_formula_sequence(kPaperProgram)),
              std::make_unique<tce::CharacterizedModel>(
                  tce::characterize_itanium(64)),
              {},
              {}};
  tce::OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4'000'000'000ull;
  cfg.threads = 1;
  p.plan = tce::optimize(p.tree, *p.model, cfg);
  p.plan.stats.search_wall_s = 0;
  for (auto& n : p.plan.stats.nodes) n.wall_s = 0;
  p.json = tce::plan_to_json(p.plan, p.tree.space());
  return p;
}

TEST(Checks, PaperRowReproducesTheTableOneFields) {
  const PaperPlan p = plan_table1();
  tce::VerifyOptions vopts;
  vopts.mem_limit_node_bytes = 4'000'000'000ull;
  const tce::VerifyReport report = tce::verify_plan(
      p.tree, *p.model, tce::plan_from_json(p.json, p.tree), vopts);
  EXPECT_EQ(check_plan("paper-table1", p.json, p.json, p.plan, report), "");
  // The same plan does not pass as Table 2.
  EXPECT_NE(check_plan("paper-table2", p.json, p.json, p.plan, report), "");
}

TEST(Checks, CorruptedPlansCountAsFailures) {
  const PaperPlan p = plan_table1();
  tce::VerifyOptions vopts;
  vopts.mem_limit_node_bytes = 4'000'000'000ull;
  const tce::VerifyReport clean = tce::verify_plan(
      p.tree, *p.model, tce::plan_from_json(p.json, p.tree), vopts);

  // A changed byte no longer matches the reference.
  std::string edited = p.json;
  edited[edited.find("total_comm_s") + 15] ^= 1;
  EXPECT_NE(check_plan("paper-table1", edited, p.json, p.plan, clean), "");

  // A plan whose cost was tampered with fails the verifier and the pin.
  tce::OptimizedPlan tampered = p.plan;
  tampered.total_comm_s *= 2;
  const std::string tampered_json =
      tce::plan_to_json(tampered, p.tree.space());
  const tce::VerifyReport bad = tce::verify_plan(
      p.tree, *p.model, tce::plan_from_json(tampered_json, p.tree), vopts);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(check_plan("other", tampered_json, tampered_json, tampered, bad),
            "");
  EXPECT_NE(check_plan("paper-table1", p.json, p.json, tampered, clean), "");

  // Truncated JSON throws a tce::Error, which the op loop counts.
  EXPECT_THROW((void)tce::plan_from_json(p.json.substr(0, 40), p.tree),
               tce::Error);
}

TEST(BenchmarkJson, NamesExactlyTheMetricsTheDriverPrints) {
  std::ifstream in(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
  ASSERT_TRUE(in) << "cannot open BENCHMARK.json";
  std::stringstream text;
  text << in.rdbuf();
  const tce::json::Value doc = tce::json::parse(text.str());

  std::set<std::string> workloads;
  for (const auto& w : doc.at("workloads").array) {
    workloads.insert(w.at("name").string);
  }
  EXPECT_EQ(workloads,
            (std::set<std::string>{"plan-cc", "serve-zipf", "exec-cannon"}));

  const auto& e2e = doc.at("end_to_end").array;
  ASSERT_EQ(e2e.size(), end_to_end_metrics().size());
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    EXPECT_EQ(e2e[i].at("name").string, end_to_end_metrics()[i]);
  }
  const auto& layers = doc.at("per_layer").array;
  ASSERT_EQ(layers.size(), per_layer_metrics().size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(layers[i].at("name").string, per_layer_metrics()[i].name);
    EXPECT_EQ(layers[i].at("unit").string, per_layer_metrics()[i].unit);
  }
}

}  // namespace
