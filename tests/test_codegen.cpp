// Tests for tce/codegen: the emitted pseudocode must reflect the plan's
// fusion structure, distributions, and rotation choices.

#include <gtest/gtest.h>

#include "tce/codegen/codegen.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;


TEST(Codegen, UnfusedPlanHasNoLoops) {
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  CharacterizedModel model(characterize_itanium(64));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4ull * 1000 * 1000 * 1000;
  OptimizedPlan plan = optimize(tree, model, cfg);
  const std::string code = generate_pseudocode(tree, plan);
  EXPECT_EQ(code.find("for f ="), std::string::npos) << code;
  EXPECT_NE(code.find("cannon"), std::string::npos);
  // Three contractions, three cannon lines.
  std::size_t count = 0, pos = 0;
  while ((pos = code.find("cannon", pos)) != std::string::npos) {
    ++count;
    pos += 6;
  }
  EXPECT_EQ(count, 3u);
}

TEST(Codegen, FusedPlanNestsTheFLoop) {
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4ull * 1000 * 1000 * 1000;
  OptimizedPlan plan = optimize(tree, model, cfg);
  const std::string code = generate_pseudocode(tree, plan);
  // The f loop is fused: a loop header plus the reduced T1 slice.
  EXPECT_NE(code.find("for f = 0 .. 63:"), std::string::npos) << code;
  EXPECT_NE(code.find("T1[b,c,d]"), std::string::npos) << code;
  EXPECT_NE(code.find("(fused from T1[b,c,d,f])"), std::string::npos);
  // Operand slices pin the fused index.
  EXPECT_NE(code.find("f=fixed"), std::string::npos) << code;
  // Input declarations carry their distributions.
  EXPECT_NE(code.find("input  D[c,d,e,l] dist"), std::string::npos);
}

TEST(Codegen, ReplicatedStepsRender) {
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(kPaperProgram));
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4ull * 1000 * 1000 * 1000;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, model, cfg);
  bool any = false;
  for (const auto& s : plan.steps) {
    any = any || s.tmpl == StepTemplate::kReplicated;
  }
  ASSERT_TRUE(any);  // the 4.9x scenario uses replication
  const std::string code = generate_pseudocode(tree, plan);
  EXPECT_NE(code.find("replicated"), std::string::npos) << code;
  EXPECT_NE(code.find("allgather"), std::string::npos) << code;
}

TEST(Codegen, AllreduceIsNamed) {
  // T keeps only a and b: with X stationary on <b,d>, no index is left to
  // scatter T's partials along d's grid dimension, so every rank keeps
  // the whole sum.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index a = 3\nindex b = 16\nindex d = 8\n"
                             "index e = 12\n"
                             "T[a,b] = sum[d,e] X[d,a,e,b] * Y[d,e]"));
  CharacterizedModel model(characterize_itanium(4));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 30'000;
  cfg.enable_replication_template = true;
  const std::string code =
      generate_pseudocode(tree, optimize(tree, model, cfg));
  EXPECT_NE(code.find("; allreduce partials along dim 2 → <b,·>"),
            std::string::npos)
      << code;
  EXPECT_EQ(code.find("reduce-scatter"), std::string::npos) << code;
}

TEST(Codegen, ReduceNodesRender) {
  FormulaSequence seq = parse_formula_sequence(R"(
    index i, j, k = 64
    C[i,j] = sum[k] A[i,k] * B[k,j]
    s[] = sum[i,j] C[i,j]
  )");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  CharacterizedModel model(characterize_itanium(16));
  OptimizedPlan plan = optimize(tree, model);
  const std::string code = generate_pseudocode(tree, plan);
  EXPECT_NE(code.find("reduce{i,j}"), std::string::npos) << code;
}

}  // namespace
}  // namespace tce
