// Tests for the JSON plan export: structural validity (balanced,
// expected keys, proper escaping) and value fidelity against the plan.

#include <gtest/gtest.h>

#include "tce/cli/cli.hpp"
#include "tce/common/error.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/verify/verifier.hpp"

namespace tce {
namespace {

OptimizedPlan table2_plan(const char** space_out_name,
                          FormulaSequence& seq_out) {
  (void)space_out_name;
  seq_out = parse_formula_sequence(R"(
    index a, b, c, d = 480
    index e, f = 64
    index i, j, k, l = 32
    T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
    T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
    S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
  )");
  ContractionTree tree = ContractionTree::from_sequence(seq_out);
  static CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4'000'000'000;
  return optimize(tree, model, cfg);
}

bool balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(PlanJson, StructurallyValidAndComplete) {
  FormulaSequence seq;
  OptimizedPlan plan = table2_plan(nullptr, seq);
  const std::string json = plan_to_json(plan, seq.space());
  EXPECT_TRUE(balanced(json)) << json;
  for (const char* key :
       {"\"total_comm_s\"", "\"memory\"", "\"steps\"", "\"arrays\"",
        "\"template\":\"cannon\"", "\"fusion\":[\"f\"]",
        "\"name\":\"T1\"", "\"kind\":\"input\"", "\"kind\":\"output\"",
        "\"rotation_index\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The fused T1 row exposes its reduced dims (b,c,d — no f).
  EXPECT_NE(json.find("\"reduced_dims\":[\"b\",\"c\",\"d\"]"),
            std::string::npos)
      << json;
}

TEST(PlanJson, ValuesMatchThePlan) {
  FormulaSequence seq;
  OptimizedPlan plan = table2_plan(nullptr, seq);
  const std::string json = plan_to_json(plan, seq.space());
  // Memory values are integers and must appear verbatim.
  EXPECT_NE(json.find("\"array_bytes_per_node\":" +
                      std::to_string(plan.bytes_per_node())),
            std::string::npos);
  EXPECT_NE(json.find("\"buffer_bytes_per_node\":" +
                      std::to_string(plan.buffer_bytes_per_node())),
            std::string::npos);
}

TEST(PlanJson, CliJsonFlagEmitsParseableOutput) {
  // Smoke via the CLI path (single tree).
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "json_prog.tce";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("index a, b, c = 64\nC[a,c] = sum[b] X[a,b] * Y[b,c]\n",
               f);
    std::fclose(f);
  }
  CliResult r = run_cli({"plan", path, "--procs", "4", "--json"});
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_TRUE(balanced(r.output)) << r.output;
  EXPECT_EQ(r.output.front(), '{');
}

/// Field-by-field equality over everything the verifier inspects.
void expect_same_plan(const OptimizedPlan& a, const OptimizedPlan& b) {
  EXPECT_DOUBLE_EQ(a.total_comm_s, b.total_comm_s);
  EXPECT_DOUBLE_EQ(a.total_compute_s, b.total_compute_s);
  EXPECT_EQ(a.array_bytes_per_proc, b.array_bytes_per_proc);
  EXPECT_EQ(a.max_msg_bytes_per_proc, b.max_msg_bytes_per_proc);
  EXPECT_EQ(a.peak_live_bytes_per_proc, b.peak_live_bytes_per_proc);
  EXPECT_EQ(a.procs_per_node, b.procs_per_node);
  EXPECT_EQ(a.liveness_aware, b.liveness_aware);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const PlanStep& s = a.steps[i];
    const PlanStep& t = b.steps[i];
    EXPECT_EQ(s.node, t.node);
    EXPECT_EQ(s.result_name, t.result_name);
    EXPECT_EQ(s.tmpl, t.tmpl);
    EXPECT_EQ(s.fusion, t.fusion);
    EXPECT_EQ(s.effective_fused, t.effective_fused);
    EXPECT_EQ(s.left_dist, t.left_dist);
    EXPECT_EQ(s.right_dist, t.right_dist);
    EXPECT_EQ(s.result_dist, t.result_dist);
    EXPECT_EQ(s.choice.i, t.choice.i);
    EXPECT_EQ(s.choice.j, t.choice.j);
    EXPECT_EQ(s.choice.k, t.choice.k);
    EXPECT_EQ(s.choice.rot, t.choice.rot);
    EXPECT_EQ(s.choice.transposed, t.choice.transposed);
    EXPECT_EQ(s.replicate_right, t.replicate_right);
    EXPECT_EQ(s.reduce_dim, t.reduce_dim);
    EXPECT_DOUBLE_EQ(s.rot_left_s, t.rot_left_s);
    EXPECT_DOUBLE_EQ(s.rot_right_s, t.rot_right_s);
    EXPECT_DOUBLE_EQ(s.rot_result_s, t.rot_result_s);
    EXPECT_DOUBLE_EQ(s.redist_left_s, t.redist_left_s);
    EXPECT_DOUBLE_EQ(s.redist_right_s, t.redist_right_s);
  }
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (std::size_t i = 0; i < a.arrays.size(); ++i) {
    const ArrayReport& x = a.arrays[i];
    const ArrayReport& y = b.arrays[i];
    EXPECT_EQ(x.full, y.full);
    EXPECT_EQ(x.reduced, y.reduced);
    EXPECT_EQ(x.is_input, y.is_input);
    EXPECT_EQ(x.is_output, y.is_output);
    EXPECT_EQ(x.initial_dist, y.initial_dist);
    EXPECT_EQ(x.final_dist, y.final_dist);
    EXPECT_EQ(x.mem_per_node_bytes, y.mem_per_node_bytes);
    EXPECT_EQ(x.comm_initial_s, y.comm_initial_s);
    EXPECT_EQ(x.comm_final_s, y.comm_final_s);
  }
}

TEST(PlanJson, RoundTripIsLosslessAndVerifies) {
  FormulaSequence seq;
  OptimizedPlan plan = table2_plan(nullptr, seq);
  ContractionTree tree = ContractionTree::from_sequence(seq);
  const std::string json = plan_to_json(plan, tree.space());
  OptimizedPlan reread = plan_from_json(json, tree);
  expect_same_plan(plan, reread);
  // Serializing the reread plan reproduces the bytes exactly.
  EXPECT_EQ(plan_to_json(reread, tree.space()), json);

  // The communication-gap stats survive the codec.
  EXPECT_GT(plan.stats.comm_lb_words, 0u);
  EXPECT_EQ(reread.stats.comm_lb_words, plan.stats.comm_lb_words);
  EXPECT_EQ(reread.stats.achieved_comm_words,
            plan.stats.achieved_comm_words);
  EXPECT_DOUBLE_EQ(reread.stats.comm_gap_ratio,
                   plan.stats.comm_gap_ratio);

  // A plan file written before the `bounded` counter existed still
  // loads, with the counter at 0 in the totals and every node.
  EXPECT_GT(plan.stats.bounded, 0u);
  std::string older = json;
  for (std::size_t at = older.find("\"bounded\":"); at != std::string::npos;
       at = older.find("\"bounded\":")) {
    older.erase(at, older.find(',', at) + 1 - at);
  }
  const OptimizedPlan old_plan = plan_from_json(older, tree);
  EXPECT_EQ(old_plan.stats.bounded, 0u);
  for (const NodeSearchStats& n : old_plan.stats.nodes) {
    EXPECT_EQ(n.bounded, 0u) << n.result_name;
  }
  EXPECT_EQ(old_plan.stats.kept, plan.stats.kept);

  // The reread plan passes the full verifier, like the original.
  CharacterizedModel model(characterize_itanium(16));
  VerifyOptions opts;
  opts.mem_limit_node_bytes = 4'000'000'000;
  const VerifyReport r = verify_plan(tree, model, reread, opts);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
}

TEST(PlanJson, RoundTripPreservesReplicatedSteps) {
  FormulaSequence seq = parse_formula_sequence(R"(
    index i = 2048
    index j = 4
    index k = 2048
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, model, cfg);
  OptimizedPlan reread =
      plan_from_json(plan_to_json(plan, tree.space()), tree);
  expect_same_plan(plan, reread);
  const VerifyReport r = verify_plan(tree, model, reread);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
}

TEST(PlanJson, MalformedInputIsATypedError) {
  FormulaSequence seq;
  OptimizedPlan plan = table2_plan(nullptr, seq);
  ContractionTree tree = ContractionTree::from_sequence(seq);
  const std::string json = plan_to_json(plan, tree.space());
  EXPECT_THROW(plan_from_json("", tree), Error);
  EXPECT_THROW(plan_from_json("[1, 2]", tree), Error);
  EXPECT_THROW(plan_from_json("{\"steps\": []}", tree), Error);
  EXPECT_THROW(plan_from_json(json.substr(0, json.size() / 2), tree),
               Error);
  // Unknown index names are rejected, not silently dropped.
  std::string bad = json;
  const std::string from = "\"fusion\":[\"f\"]";
  const auto at = bad.find(from);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, from.size(), "\"fusion\":[\"zz\"]");
  EXPECT_THROW(plan_from_json(bad, tree), Error);
}

TEST(PlanJson, ReplicatedStepsAreLabeled) {
  FormulaSequence seq = parse_formula_sequence(R"(
    index i = 2048
    index j = 4
    index k = 2048
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, model, cfg);
  const std::string json = plan_to_json(plan, seq.space());
  EXPECT_TRUE(balanced(json));
  if (plan.steps[0].tmpl == StepTemplate::kReplicated) {
    EXPECT_NE(json.find("\"template\":\"replicated\""),
              std::string::npos);
    EXPECT_NE(json.find("\"rotation_index\":null"), std::string::npos);
  }
}

}  // namespace
}  // namespace tce
