// End-to-end property sweep: for random small contraction trees, the
// optimizer's plan — executed numerically by the distributed engines on
// the simulated cluster — must reproduce the reference einsum, and the
// executed communication time must be in the neighborhood of the
// optimizer's prediction.

#include <gtest/gtest.h>

#include "tce/cannon/executor.hpp"
#include "tce/common/error.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/verify/verifier.hpp"

namespace tce {
namespace {

/// Builds a random 2-contraction chain over extents divisible by the
/// grid edge, with occasional extra shared indices.
FormulaSequence random_chain(Rng& rng, std::uint32_t edge) {
  auto ext = [&] {
    return std::to_string(edge * static_cast<std::uint64_t>(
                                     rng.uniform_int(1, 3)));
  };
  std::string text;
  text += "index p = " + ext() + "\n";
  text += "index q = " + ext() + "\n";
  text += "index r = " + ext() + "\n";
  text += "index s = " + ext() + "\n";
  text += "index t = " + ext() + "\n";
  text += "index u = " + ext() + "\n";
  // V[p,r,s] = Σ_q A[p,q] B[q,r,s];  W[p,t,u] = Σ_rs V[p,r,s] C[r,s,t,u]
  text += "V[p,r,s] = sum[q] A[p,q] * B[q,r,s]\n";
  text += "W[p,t,u] = sum[r,s] V[p,r,s] * C[r,s,t,u]\n";
  return parse_formula_sequence(text);
}

class EndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(EndToEnd, PlanExecutesCorrectly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const ProcGrid grid = ProcGrid::make(4, 2);
  Network net(ClusterSpec::itanium2003(2));
  CharacterizedModel model(characterize(net, grid));

  FormulaSequence seq = random_chain(rng, grid.edge);
  ContractionTree tree = ContractionTree::from_sequence(seq);

  OptimizerConfig cfg;
  cfg.enable_replication_template = (GetParam() % 2) == 1;
  OptimizedPlan plan = optimize(tree, model, cfg);

  // Before executing, the independent verifier must accept the plan.
  const VerifyReport report = verify_plan(tree, model, plan);
  EXPECT_TRUE(report.ok()) << report.str(tree);
  EXPECT_TRUE(report.diagnostics.empty()) << report.str(tree);

  auto inputs = make_random_inputs(tree, rng);
  TreeRunResult run = run_plan(net, grid, tree, plan, inputs);
  DenseTensor want = evaluate_tree(tree, inputs);
  EXPECT_LT(want.max_abs_diff(run.result), 1e-9);

  // The executed communication overlaps concurrent transfers, so it can
  // undershoot the summed-solo prediction, but never by more than the
  // number of concurrently moving arrays; and it must never exceed the
  // prediction by more than a small tolerance.
  EXPECT_LE(run.timing.comm_s, plan.total_comm_s * 1.05 + 1e-9);
  EXPECT_GE(run.timing.comm_s, plan.total_comm_s / 3.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEnd, ::testing::Range(0, 12));

}  // namespace
}  // namespace tce
