// Tests for tce/verify: the independent plan verifier must accept every
// plan the optimizer emits (zero diagnostics) and reject hand-corrupted
// plans with the specific rule that was violated.

#include <gtest/gtest.h>

#include <cstdlib>

#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/verify/verifier.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::paper_tree;

/// One optimization of the paper's workload on 16 processors (Table 2's
/// setting, which exercises fusion), shared across the corruption tests.
struct Paper16 {
  ContractionTree tree = paper_tree();
  CharacterizedModel model{characterize_itanium(16)};
  OptimizedPlan plan;

  Paper16() {
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = kNodeLimit4GB;
    plan = optimize(tree, model, cfg);
  }
};

Paper16& paper16() {
  static Paper16 p;
  return p;
}

VerifyReport verify16(const OptimizedPlan& plan,
                      std::uint64_t limit = kNodeLimit4GB) {
  VerifyOptions opts;
  opts.mem_limit_node_bytes = limit;
  return verify_plan(paper16().tree, paper16().model, plan, opts);
}

bool has_rule(const VerifyReport& r, const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule == rule && d.severity == Severity::kError) return true;
  }
  return false;
}

PlanStep& fused_step(OptimizedPlan& plan) {
  for (PlanStep& s : plan.steps) {
    if (!s.fusion.empty()) return s;
  }
  ADD_FAILURE() << "paper plan at 16 procs has no fused step";
  return plan.steps.front();
}

// ------------------------------------------------------------ clean plans

TEST(Verify, PaperPlanHasZeroDiagnostics) {
  const VerifyReport r = verify16(paper16().plan);
  EXPECT_TRUE(r.ok()) << r.str(paper16().tree);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(paper16().tree);
  EXPECT_GT(r.rules_checked, 30u);  // every family of rules actually ran
}

TEST(Verify, PopulatesPerRuleCountersWhenMetricsAreLive) {
  // Build the shared fixture first: under TCE_VERIFY_PLANS the optimizer
  // verifies the plan it emits, and that run must not be counted here.
  const OptimizedPlan& plan = paper16().plan;
  obs::ScopedMetrics scoped;
  const VerifyReport r = verify16(plan);
  EXPECT_EQ(obs::counter_value("verify.runs"), 1u);
  std::uint64_t per_rule = 0;
  for (const auto& [name, metric] : obs::metrics_snapshot()) {
    if (name.rfind("verify.rule.", 0) == 0) per_rule += metric.total;
  }
  EXPECT_EQ(per_rule, r.rules_checked)
      << "per-rule counters must sum to the report's rules_checked";
}

TEST(Verify, Table1SettingVerifiesClean) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(64));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  OptimizedPlan plan = optimize(tree, model, cfg);
  VerifyOptions opts;
  opts.mem_limit_node_bytes = kNodeLimit4GB;
  const VerifyReport r = verify_plan(tree, model, plan, opts);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
}

TEST(Verify, ReplicationPlanVerifiesClean) {
  ContractionTree tree = paper_tree();
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, paper16().model, cfg);
  VerifyOptions opts;
  opts.mem_limit_node_bytes = kNodeLimit4GB;
  const VerifyReport r = verify_plan(tree, paper16().model, plan, opts);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
}

TEST(Verify, LivenessPlanVerifiesClean) {
  ContractionTree tree = paper_tree();
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.liveness_aware = true;
  OptimizedPlan plan = optimize(tree, paper16().model, cfg);
  VerifyOptions opts;
  opts.mem_limit_node_bytes = kNodeLimit4GB;
  const VerifyReport r = verify_plan(tree, paper16().model, plan, opts);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
}

TEST(Verify, FrontierPlansVerifyClean) {
  ContractionTree tree = paper_tree();
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  for (const OptimizedPlan& plan :
       optimize_frontier(tree, paper16().model, cfg)) {
    const VerifyReport r = verify_plan(tree, paper16().model, plan);
    EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
  }
}

TEST(Verify, ReduceNodesVerifyClean) {
  // Single-operand summations become reduce nodes, which have no
  // PlanStep; the verifier reconstructs them from the array rows.
  CharacterizedModel model(characterize_itanium(4));
  for (const char* program : {
           "index i, j = 8\nS[j] = sum[i] A[i,j]",
           R"(
             index i, j, k, l = 16
             V[j,k] = sum[i] A[i,j,k]
             W[l] = sum[j,k] V[j,k] * B[j,k,l]
           )",
       }) {
    ContractionTree tree =
        ContractionTree::from_sequence(parse_formula_sequence(program));
    OptimizedPlan plan = optimize(tree, model, {});
    const VerifyReport r = verify_plan(tree, model, plan);
    EXPECT_TRUE(r.diagnostics.empty()) << program << "\n" << r.str(tree);
  }
}

// ------------------------------------------------------- corrupted plans

TEST(Verify, SwappedTripletIndexIsRejected) {
  OptimizedPlan plan = paper16().plan;
  PlanStep* victim = nullptr;
  for (PlanStep& s : plan.steps) {
    if (s.tmpl == StepTemplate::kCannon && s.choice.i != kNoIndex &&
        s.choice.j != kNoIndex) {
      victim = &s;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  std::swap(victim->choice.i, victim->choice.j);  // i ∉ I and j ∉ J now
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "cannon.triplet")) << r.str(paper16().tree);
}

TEST(Verify, DistributedFusedIndexIsRejected) {
  OptimizedPlan plan = paper16().plan;
  PlanStep& s = fused_step(plan);
  // Grid-distribute one of the step's fused indices: §3.2(iii) requires
  // the fused loop ranges to agree, which the library guarantees by
  // never distributing fused indices.
  const IndexId f = *s.fusion.begin();
  s.result_dist = Distribution(f, s.result_dist.at(2));
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "dist.fused-undistributed"))
      << r.str(paper16().tree);
}

TEST(Verify, BrokenDistributionAgreementIsRejected) {
  OptimizedPlan plan = paper16().plan;
  // The fused intermediate must be consumed exactly as produced; making
  // the consumer read it in a different layout breaks §3.2(iii).
  PlanStep& producer = fused_step(plan);
  for (PlanStep& s : plan.steps) {
    if (&s == &producer || s.tmpl != StepTemplate::kCannon) continue;
    if (s.left_dist == producer.result_dist) {
      s.choice.transposed = !s.choice.transposed;
      s.left_dist = s.choice.left_dist();
      s.right_dist = s.choice.right_dist();
      s.result_dist = s.choice.result_dist();
      break;
    }
  }
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "dist.operand-agreement"))
      << r.str(paper16().tree);
}

TEST(Verify, IllegalFusionNestingIsRejected) {
  OptimizedPlan plan = paper16().plan;
  // The consumer of the fused intermediate gets a fusion of its own that
  // spans the producer's loop nest without being fused through it.
  const PlanStep& producer = fused_step(plan);
  const ContractionTree& tree = paper16().tree;
  for (PlanStep& s : plan.steps) {
    bool consumes = tree.node(s.node).left == producer.node ||
                    tree.node(s.node).right == producer.node;
    if (!consumes) continue;
    const ContractionNode& pn = tree.node(producer.node);
    for (IndexId v : pn.loop_indices() & tree.node(s.node).dimens()) {
      if (!producer.fusion.contains(v)) {
        s.fusion.insert(v);
        s.effective_fused.insert(v);
        break;
      }
    }
  }
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "fusion.nesting")) << r.str(paper16().tree);
}

TEST(Verify, InflatedArrayBytesIsRejected) {
  OptimizedPlan plan = paper16().plan;
  plan.array_bytes_per_proc += 4096;
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "mem.array-total")) << r.str(paper16().tree);
  EXPECT_FALSE(has_rule(r, "mem.peak-live"));  // only the lie is flagged
}

TEST(Verify, UnderstatedCommTotalIsRejected) {
  OptimizedPlan plan = paper16().plan;
  plan.total_comm_s *= 0.5;
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "cost.total")) << r.str(paper16().tree);
}

TEST(Verify, MisstatedCommWordsAreRejected) {
  // The canonical word count shares cost.total with the seconds: a
  // misstated count fails that rule without evaluating an extra one.
  OptimizedPlan plan = paper16().plan;
  const VerifyReport clean = verify16(plan);
  plan.stats.achieved_comm_words += 1;
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "cost.total")) << r.str(paper16().tree);
  EXPECT_EQ(r.diagnostics.size(), 1u) << r.str(paper16().tree);
  EXPECT_EQ(r.rules_checked, clean.rules_checked);
}

TEST(Verify, PhantomRedistributionIsRejected) {
  OptimizedPlan plan = paper16().plan;
  // Charge a redistribution on an operand consumed as produced.
  fused_step(plan).redist_left_s += 7.0;
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "cost.redistribution"))
      << r.str(paper16().tree);
}

TEST(Verify, WrongRotationCostIsRejected) {
  OptimizedPlan plan = paper16().plan;
  PlanStep& s = fused_step(plan);
  s.rot_left_s = s.rot_left_s * 3.0 + 1.0;
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "cost.rotation")) << r.str(paper16().tree);
}

TEST(Verify, DroppedStepIsRejected) {
  OptimizedPlan plan = paper16().plan;
  plan.steps.pop_back();
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "structure.steps")) << r.str(paper16().tree);
}

TEST(Verify, RenamedResultIsRejected) {
  OptimizedPlan plan = paper16().plan;
  plan.steps.front().result_name = "bogus";
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "structure.result-name"))
      << r.str(paper16().tree);
}

TEST(Verify, WrongRotationIndexIsRejected) {
  OptimizedPlan plan = paper16().plan;
  for (PlanStep& s : plan.steps) {
    if (s.tmpl == StepTemplate::kCannon) {
      s.choice.rot = kNoIndex;
      break;
    }
  }
  const VerifyReport r = verify16(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "cannon.rotation")) << r.str(paper16().tree);
}

TEST(Verify, MemoryLimitViolationIsRejected) {
  // The clean plan respects 4 GB/node but not 1 GB/node; verifying
  // against the tighter limit must flag mem.limit (and nothing else).
  const VerifyReport r =
      verify16(paper16().plan, /*limit=*/1'000'000'000);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "mem.limit")) << r.str(paper16().tree);
  EXPECT_EQ(r.diagnostics.size(), 1u) << r.str(paper16().tree);
}

TEST(Verify, ZeroLimitSkipsTheLimitRule) {
  const VerifyReport r = verify16(paper16().plan, /*limit=*/0);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(paper16().tree);
}

TEST(Verify, ReportRendersRuleAndNodeNames) {
  OptimizedPlan plan = paper16().plan;
  plan.array_bytes_per_proc += 1;
  const VerifyReport r = verify16(plan);
  const std::string text = r.str(paper16().tree);
  EXPECT_NE(text.find("rule=mem.array-total"), std::string::npos) << text;
  EXPECT_NE(text.find("rules checked"), std::string::npos) << text;
}

TEST(Verify, EnvToggleParsesCommonSpellings) {
  // Not set / empty / "0" = off, anything else = on.
  unsetenv("TCE_VERIFY_PLANS");
  EXPECT_FALSE(verify_plans_enabled());
  setenv("TCE_VERIFY_PLANS", "", 1);
  EXPECT_FALSE(verify_plans_enabled());
  setenv("TCE_VERIFY_PLANS", "0", 1);
  EXPECT_FALSE(verify_plans_enabled());
  setenv("TCE_VERIFY_PLANS", "1", 1);
  EXPECT_TRUE(verify_plans_enabled());
  unsetenv("TCE_VERIFY_PLANS");
}

}  // namespace
}  // namespace tce
