// Tests for tce/codegen: the emitted pseudocode must reflect the plan's
// fusion structure, distributions, and rotation choices.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "tce/cannon/executor.hpp"
#include "tce/codegen/codegen.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/fuzz/oracles.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/kernel.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;

/// The `for` loops enclosing each contraction line of \p code, read from
/// the indentation, keyed by the line's result name.
std::map<std::string, IndexSet> enclosing_loops(const std::string& code,
                                                const IndexSpace& space) {
  std::map<std::string, IndexSet> out;
  std::vector<std::pair<std::size_t, IndexId>> open;  // (depth, loop)
  std::istringstream in(code);
  for (std::string line; std::getline(in, line);) {
    const std::size_t depth = line.find_first_not_of(' ');
    if (depth == std::string::npos) continue;
    while (!open.empty() && open.back().first >= depth) open.pop_back();
    const std::string text = line.substr(depth);
    if (text.starts_with("for ")) {
      const std::size_t end = text.find(' ', 4);
      open.emplace_back(depth, space.id(text.substr(4, end - 4)));
      continue;
    }
    for (const char* verb : {"cannon ", "replicated "}) {
      if (!text.starts_with(verb)) continue;
      const std::size_t begin = std::string(verb).size();
      IndexSet loops;
      for (const auto& [d, l] : open) loops.insert(l);
      out[text.substr(begin, text.find('[') - begin)] = loops;
    }
  }
  return out;
}


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

TEST(Codegen, FusedChildRunsInsideItsParentsLoopsPlusItsOwnFusion) {
  // T1 is fused over {b,d} into T2 and T2 over {b} into T3: T2 is zeroed
  // once per b, before the d loop its fused child adds, and T3 sums all
  // of d once per b, after that loop closes.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence(R"(
        index a = 8
        index b = 16
        index c = 64
        index d = 16
        index e = 32
        index f = 64
        index g = 8
        T1[a,c,b,d] = sum[e] X0[e,b,a] * X1[d,e,c]
        T2[c,b,d] = sum[a] T1[a,c,b,d] * X2[a]
        T3[b] = sum[d,c] T2[c,b,d] * X3[d,c]
        T4[g,f] = sum[b] T3[b] * X4[f,b,g]
      )"));
  CharacterizedModel model(characterize_itanium(4, 1));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 200'000;
  cfg.enable_replication_template = true;
  const std::string code =
      generate_pseudocode(tree, optimize(tree, model, cfg));
  EXPECT_NE(code.find("T3[b] = 0\n"
                      "for b = 0 .. 15:\n"
                      "  T2[c,d] = 0\n"
                      "  for d = 0 .. 15:\n"
                      "    T1[a,c] = 0\n"
                      "    replicated T1[a,c] += "),
            std::string::npos)
      << code;
  EXPECT_NE(code.find("\n    replicated T2[c,d] += "), std::string::npos)
      << code;
  EXPECT_NE(code.find("\n  replicated T3[b] += "), std::string::npos)
      << code;

  // The paper program fuses T1 over {f} into T2 and T2 over {j} into S:
  // T2 sums over f, so it is zeroed outside the f loop.
  ContractionTree paper = paper_tree();
  CharacterizedModel model16(characterize_itanium(16));
  cfg.mem_limit_node_bytes = 1'300'000'000;
  const std::string paper_code =
      generate_pseudocode(paper, optimize(paper, model16, cfg));
  EXPECT_NE(paper_code.find("for j = 0 .. 31:\n"
                            "  T2[b,c,k] = 0\n"
                            "  for f = 0 .. 63:\n"
                            "    T1[b,c,d] = 0\n"),
            std::string::npos)
      << paper_code;
}

TEST(Codegen, FusedReduceNodeOpensItsLoop) {
  // Fuzz seed 50119 fuses T2 = reduce{a} T1 over {c} into T3: the reduce
  // runs inside the c loop, on T1's c slice.
  fuzz::GenOptions gen;
  gen.max_nodes = 3;
  fuzz::TableCache tables;
  fuzz::OracleContext ctx(fuzz::generate_instance(50119, gen), tables);
  ASSERT_TRUE(ctx.plan().has_value());
  const std::string code = generate_pseudocode(ctx.tree(), *ctx.plan());
  EXPECT_NE(code.find("local  T2[b,d] (fused from T2[b,c,d])"),
            std::string::npos)
      << code;
  EXPECT_NE(code.find("\nT3[b] = 0\n"
                      "for c = 0 .. 0:\n"
                      "  T2[b,d] = 0\n"
                      "  T2[b,d] += reduce{a} T1[b,c=fixed,d,a]\n"
                      "  cannon T3[b] += T2[b,c=fixed,d] * "),
            std::string::npos)
      << code;
}

TEST(Codegen, KernelNoteFollowsTheReplicatedPartialBlock) {
  // T is distributed <b,a>, but the stationary Y splits only b, so each
  // rank multiplies a 64×32×16 block before a is scattered: the
  // executor runs it on the tiled kernel, and the note must say so.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index a = 64\nindex b = 64\nindex k = 16\n"
                             "T[a,b] = sum[k] X[a,k] * Y[k,b]"));
  const ProcGrid grid = ProcGrid::make(4, 1);
  Network net(ClusterSpec::itanium2003(4, 1));
  CharacterizedModel model(characterize(net, grid));
  OptimizerConfig cfg;
  cfg.enable_replication_template = true;
  const OptimizedPlan plan = optimize(tree, model, cfg);
  ASSERT_EQ(plan.steps.size(), 1u);
  ASSERT_EQ(plan.steps[0].tmpl, StepTemplate::kReplicated);
  const std::string code = generate_pseudocode(tree, plan, grid.edge);
  EXPECT_NE(code.find("Y stationary <b,·> → <b,a>, kern=tiled"),
            std::string::npos)
      << code;

  const ScopedKernelConfig kernel(KernelKind::kAuto);
  const obs::ScopedMetrics metrics;
  Rng rng(7);
  run_plan(net, grid, tree, plan, make_random_inputs(tree, rng));
  EXPECT_EQ(obs::counter_value("kernel.tiled_calls"), 2u);
}

TEST(Codegen, LoopsMatchThePlanOverTheFuzzWindows) {
  // Every contraction line runs inside its step's effective fusion, and
  // inside nothing more when each fused child's fusion holds its
  // parent's (otherwise the nesting rule lets a child sit inside a
  // parent loop it lacks).
  fuzz::TableCache tables;
  std::size_t rendered = 0, exact = 0;
  const std::pair<int, std::pair<std::uint64_t, std::uint64_t>> windows[] = {
      {3, {1, 200}}, {3, {50000, 50399}}, {6, {1, 100}}};
  for (const auto& [max_nodes, seeds] : windows) {
    for (std::uint64_t seed = seeds.first; seed <= seeds.second; ++seed) {
      fuzz::GenOptions gen;
      gen.max_nodes = max_nodes;
      gen.exec_friendly = seed % 2 == 0;
      fuzz::OracleContext ctx(fuzz::generate_instance(seed, gen), tables);
      if (!ctx.plan().has_value()) continue;
      const ContractionTree& tree = ctx.tree();
      const OptimizedPlan& plan = *ctx.plan();
      const std::string code = generate_pseudocode(tree, plan);
      ++rendered;

      std::map<std::string, IndexSet> fusion;
      for (const ArrayReport& a : plan.arrays) {
        if (!a.is_input) {
          fusion[a.full.name] = a.full.index_set() - a.reduced.index_set();
        }
      }
      bool nested = true;
      for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id) {
        const ContractionNode& n = tree.node(id);
        if (n.kind == ContractionNode::Kind::kInput) continue;
        if (n.parent == kNoNode) continue;
        const IndexSet& own = fusion[n.tensor.name];
        const NodeId p = n.parent;
        const IndexSet up = tree.node(p).parent == kNoNode
                                ? IndexSet()
                                : fusion[tree.node(p).tensor.name];
        if (!own.empty() && !up.subset_of(own)) nested = false;
      }

      const std::map<std::string, IndexSet> loops =
          enclosing_loops(code, tree.space());
      for (const PlanStep& s : plan.steps) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " max_nodes " +
                     std::to_string(max_nodes) + " step " + s.result_name +
                     "\n" + code);
        ASSERT_TRUE(loops.contains(s.result_name));
        const IndexSet& got = loops.at(s.result_name);
        EXPECT_TRUE(s.effective_fused.subset_of(got));
        if (nested) {
          EXPECT_EQ(got, s.effective_fused);
        }
      }
      if (nested) ++exact;
    }
  }
  EXPECT_GT(rendered, 600u);
  EXPECT_GT(exact, 600u);
}

}  // namespace
}  // namespace tce
