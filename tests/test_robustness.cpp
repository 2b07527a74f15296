// Robustness properties: malformed or randomly corrupted inputs must be
// rejected with typed errors (never crash, never silently accept), and
// the stack is deterministic end to end.

#include <gtest/gtest.h>

#include "tce/common/error.hpp"
#include "tce/common/rng.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/fuzz/generator.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;


// ------------------------------------------------------------ parser fuzz

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, CorruptedProgramsNeverCrash) {
  // The corruption operator is the fuzz subsystem's (tce/fuzz): its
  // character set is biased toward the DSL's own alphabet, which
  // reaches deeper parser states than uniformly random bytes.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::string text = kPaperProgram;
  const std::int64_t edits = rng.uniform_int(1, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    text = fuzz::corrupt_text(text, rng);
  }
  try {
    FormulaSequence seq = parse_formula_sequence(text);
    // If it still parses, it must still be a well-formed tree usable
    // downstream.
    ContractionTree tree = ContractionTree::from_sequence(seq);
    EXPECT_GT(tree.size(), 0u);
  } catch (const Error&) {
    SUCCEED();  // typed rejection is the expected outcome
  } catch (const ContractViolation&) {
    FAIL() << "corrupted input must raise tce::Error, not a contract "
              "violation";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 50));

// --------------------------------------------- characterization file fuzz

class MachineFileFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MachineFileFuzz, CorruptedFilesNeverCrash) {
  static const std::string good = [] {
    return characterize_itanium(16).save_string();
  }();
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::string text = good;
  const std::int64_t edits = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < edits; ++e) {
    text = fuzz::corrupt_text(text, rng);
  }
  try {
    CharacterizationTable t = CharacterizationTable::load_string(text);
    CharacterizedModel m(std::move(t));
    // A file that still loads must still produce sane positive costs.
    EXPECT_GT(m.rotate_cost(1 << 20, 1), 0.0);
  } catch (const Error&) {
    SUCCEED();  // typed rejection is the expected outcome
  } catch (const ContractViolation&) {
    FAIL() << "corrupted machine file must raise tce::Error, not a "
              "contract violation";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFileFuzz, ::testing::Range(0, 30));

// ------------------------------------------------------------ determinism

TEST(Determinism, OptimizerIsBitStableAcrossRuns) {
  FormulaSequence seq = parse_formula_sequence(kPaperProgram);
  ContractionTree tree = ContractionTree::from_sequence(seq);
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4'000'000'000;
  OptimizedPlan a = optimize(tree, model, cfg);
  OptimizedPlan b = optimize(tree, model, cfg);
  EXPECT_EQ(a.total_comm_s, b.total_comm_s);
  EXPECT_EQ(a.table(tree.space()), b.table(tree.space()));
}

TEST(Determinism, CharacterizationIsBitStable) {
  EXPECT_EQ(characterize_itanium(16).save_string(),
            characterize_itanium(16).save_string());
}

// ----------------------------------------------------------- API misuse

TEST(ApiMisuse, OptimizeRejectsDegenerateTrees) {
  // A bare reduce over an input is fine; a tree whose "root" is an input
  // cannot arise from a valid sequence, so only indirect misuse paths
  // remain — exercise the public ones.
  CharacterizedModel model(characterize_itanium(16));
  ContractionTree t = ContractionTree::from_sequence(
      parse_formula_sequence("index i, j = 8\nS[j] = sum[i] A[i,j]"));
  OptimizedPlan plan = optimize(t, model);
  EXPECT_GE(plan.total_comm_s, 0.0);
}

TEST(ApiMisuse, MismatchedGridAndExtentsSurfaceAsErrors) {
  // Extents that do not divide the grid edge are fine for the optimizer
  // (ceil split) but rejected by the numeric executor; both behaviors
  // are typed.
  FormulaSequence seq = parse_formula_sequence(
      "index i, j, k = 30\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  EXPECT_NO_THROW(optimize(tree, model));
}

}  // namespace
}  // namespace tce
