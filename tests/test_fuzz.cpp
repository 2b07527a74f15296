// Tests for the differential fuzzing subsystem (tce/fuzz): generator
// determinism, the oracle battery over a pinned seed budget, and the
// shrinker's guarantees.  The budget run doubles as the seed-pinned
// regression net for bugs the fuzzer has found: any planner change that
// re-introduces one turns a seed in [1, 40] into a disagreement here.

#include <gtest/gtest.h>

#include <string>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/rng.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/fuzz/brute.hpp"
#include "tce/fuzz/generator.hpp"
#include "tce/fuzz/harness.hpp"
#include "tce/fuzz/oracles.hpp"
#include "tce/fuzz/shrink.hpp"

namespace tce::fuzz {
namespace {

// ------------------------------------------------------------- generator

TEST(FuzzGenerator, DeterministicAcrossCalls) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    const FuzzInstance a = generate_instance(seed, {});
    const FuzzInstance b = generate_instance(seed, {});
    EXPECT_EQ(a.program(), b.program());
    EXPECT_EQ(a.describe(), b.describe());
  }
}

TEST(FuzzGenerator, ProgramsBuildValidTrees) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GenOptions opts;
    opts.exec_friendly = seed % 2 == 0;
    const FuzzInstance inst = generate_instance(seed, opts);
    EXPECT_FALSE(inst.stmts.empty()) << inst.program();
    const ContractionTree tree = build_tree(inst);
    EXPECT_GT(tree.size(), 0u) << inst.program();
  }
}

TEST(FuzzGenerator, ExecFriendlyInstancesDivideTheGridEdge) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GenOptions opts;
    opts.exec_friendly = true;
    const FuzzInstance inst = generate_instance(seed, opts);
    const std::uint64_t edge = exact_isqrt(inst.procs);
    for (const auto& [name, extent] : inst.indices) {
      EXPECT_EQ(extent % edge, 0u)
          << name << "=" << extent << " on edge " << edge;
    }
  }
}

TEST(FuzzCorrupt, DeterministicSingleEdit) {
  const std::string text = "index i, j = 4\nC[i] = sum[j] A[i,j] * B[j,i]";
  Rng a(3);
  Rng b(3);
  EXPECT_EQ(corrupt_text(text, a), corrupt_text(text, b));
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    const std::string out = corrupt_text(text, r);
    EXPECT_LE(out.size(), text.size() + 1);
    EXPECT_GE(out.size() + 1, text.size());
  }
}

// --------------------------------------------------------------- oracles

TEST(FuzzOracles, PinnedBudgetHasNoDisagreements) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 40;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.failures.empty()) << report.str();
  // Every oracle must actually have checked instances in the budget —
  // an all-skip would make the gate vacuous.
  for (const char* name :
       {"brute", "threads", "verify", "simnet", "exec", "lint", "commlb"}) {
    const auto it = report.executed.find(name);
    ASSERT_NE(it, report.executed.end()) << name << "\n" << report.str();
    EXPECT_GT(it->second, 0) << name << "\n" << report.str();
  }
}

TEST(FuzzOracles, SharedContextGivesTheVerdictsOfFreshOnes) {
  // The context runs the one-thread plan, the frontier and the brute
  // enumeration once for every oracle of an instance.  Each oracle, run
  // in `all` order on one context, must report what it reports alone on
  // a context of its own.
  TableCache tables;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const bool exec_friendly : {false, true}) {
      GenOptions gen;
      gen.exec_friendly = exec_friendly;
      const FuzzInstance inst = generate_instance(seed, gen);
      OracleContext shared(inst, tables);
      for (const Oracle& o : oracles()) {
        OracleContext fresh(inst, tables);
        const OracleOutcome got = o.run(shared);
        const OracleOutcome want = o.run(fresh);
        EXPECT_EQ(got.status, want.status)
            << "seed " << seed << " " << o.name;
        EXPECT_EQ(got.detail, want.detail)
            << "seed " << seed << " " << o.name;
      }
    }
  }
}

TEST(FuzzOracles, ContextKeepsNoSearchThatThrew) {
  // A batch contraction (b in both operands and the result) makes every
  // search throw.  The context keeps nothing, so each oracle that asks
  // meets the exception again, as it would on a context of its own.
  FuzzInstance inst;
  inst.indices = {{"b", 4}, {"i", 4}, {"k", 4}};
  FuzzStmt s;
  s.result = "C";
  s.result_dims = {"b", "i"};
  s.sum_dims = {"k"};
  s.left = "A";
  s.left_dims = {"b", "i", "k"};
  s.right = "B";
  s.right_dims = {"b", "k"};
  inst.stmts = {s};
  TableCache tables;
  OracleContext ctx(inst, tables);
  for (int ask = 0; ask < 2; ++ask) {
    EXPECT_THROW(ctx.plan(), Error);
    EXPECT_THROW(ctx.frontier(), Error);
    EXPECT_THROW(ctx.brute(), Error);
  }
}

TEST(FuzzOracles, SixNodeWindowHasNoDisagreements) {
  // Trees twice the default depth, as deep as the coupled-cluster
  // four-index transform and more: brute force must still fit some of
  // them under its enumeration cap, or the window checks no pruning.
  FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 10;
  opts.max_nodes = 6;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.failures.empty()) << report.str();
  EXPECT_GE(report.executed.at("brute"), 1) << report.str();
}

TEST(FuzzOracles, SingleOracleSelectionRunsOnlyThatOracle) {
  FuzzOptions opts;
  opts.seed = 2;
  opts.runs = 5;
  opts.oracle = "threads";
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.failures.empty()) << report.str();
  EXPECT_EQ(report.executed.size(), 1u);
  EXPECT_EQ(report.executed.count("threads"), 1u);
}

TEST(FuzzOracles, NameValidation) {
  EXPECT_TRUE(oracle_name_ok("all"));
  EXPECT_TRUE(oracle_name_ok("brute"));
  EXPECT_TRUE(oracle_name_ok("exec"));
  EXPECT_TRUE(oracle_name_ok("commlb"));
  EXPECT_FALSE(oracle_name_ok("astrology"));
  EXPECT_FALSE(oracle_name_ok(""));
}

TEST(FuzzOracles, CommLbSoundOnPinnedWindow) {
  // The CI gate for the communication lower-bound certificate: over the
  // documented 200-seed window the bound must never exceed the achieved
  // word count of any DP or brute-force plan, and must actually bite —
  // the skip rate (instances with no feasible plan to compare against)
  // stays below 15% so the gate cannot rot into vacuity.
  FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 200;
  opts.oracle = "commlb";
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.failures.empty()) << report.str();
  EXPECT_GT(report.executed.at("commlb"), 0) << report.str();
  EXPECT_LE(report.skipped.at("commlb"), 30) << report.str();
}

TEST(FuzzOracles, BruteSkipsStayRareOnPinnedWindow) {
  // Brute force prices every template the DP searches, replication
  // included, so over the documented 200-seed window it skips only
  // instances above its enumeration cap.
  FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 200;
  opts.oracle = "brute";
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.failures.empty()) << report.str();
  EXPECT_LE(report.skipped.at("brute"), 5) << report.str();
}

TEST(FuzzOracles, LivenessDominanceComparesEveryRolledUpTerm) {
  // Replication + liveness instances on which a dominance test that
  // compared only input_bytes + peak and working let a solution holding
  // more resident input prune one that gives the parent a smaller
  // footprint: brute force then found a root plan no DP frontier plan
  // dominates.
  for (std::uint64_t seed : {50121ull, 50209ull}) {
    FuzzOptions opts;
    opts.seed = seed;
    opts.runs = 1;
    opts.oracle = "brute";
    const FuzzReport report = run_fuzz(opts);
    EXPECT_TRUE(report.failures.empty()) << report.str();
    EXPECT_EQ(report.executed.at("brute"), 1) << report.str();
  }
}

TEST(FuzzOracles, SimnetComparesTheModelWithTheSerializedReplay) {
  // Latency-bound steps rotating two arrays: the additive model charges
  // each array its own start-up, which a concurrent replay pays once,
  // so it predicts about 2x the concurrent replay and only matches the
  // serialized one.  All oracles: under "all" an even seed draws an
  // exec-friendly instance, which 50154 needs.
  for (std::uint64_t seed : {50025ull, 50055ull, 50154ull}) {
    FuzzOptions opts;
    opts.seed = seed;
    opts.runs = 1;
    const FuzzReport report = run_fuzz(opts);
    EXPECT_TRUE(report.failures.empty()) << report.str();
    EXPECT_EQ(report.executed.at("simnet"), 1) << report.str();
  }
}

TEST(FuzzOracles, VerifyRecountsTheAllreduceWordsOfReplicatedSteps) {
  // Replicated steps whose partials are allreduced (a summation index
  // splits the stationary operand, no scatter index): every word moves
  // twice.  A verifier recount that dropped the factor 2 passed every
  // other ctest case and the seed-1 window, but fails here.  All
  // oracles, so an even seed draws the exec-friendly instance the
  // seed-50000 window checks.
  for (std::uint64_t seed : {50029ull, 50082ull}) {
    FuzzOptions opts;
    opts.seed = seed;
    opts.runs = 1;
    const FuzzReport report = run_fuzz(opts);
    EXPECT_TRUE(report.failures.empty()) << report.str();
    EXPECT_EQ(report.executed.at("verify"), 1) << report.str();
  }
}

TEST(FuzzOracles, SkipTelemetryListsAlwaysSkippedOracles) {
  // An instance on the analytic model has no reference network, so a
  // one-run simnet-only fuzz is 100% skips — the report must still show
  // the oracle's row instead of silently dropping it (the bug this
  // guards against: str() iterates `executed`, which the skip path
  // never touched).
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    if (!generate_instance(s, {}).characterized) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no analytic-model instance in the probe range";
  FuzzOptions opts;
  opts.seed = seed;
  opts.runs = 1;
  opts.oracle = "simnet";
  const FuzzReport report = run_fuzz(opts);
  ASSERT_EQ(report.executed.count("simnet"), 1u);
  EXPECT_EQ(report.executed.at("simnet"), 0);
  EXPECT_EQ(report.skipped.at("simnet"), 1);
  EXPECT_NE(report.str().find("simnet: 0 checked, 1 skipped"),
            std::string::npos)
      << report.str();
}

// --------------------------------------------------------------- shrinker

TEST(FuzzShrink, AlwaysFailingPredicateShrinksToMinimalInstance) {
  FuzzInstance inst = generate_instance(5, {});
  const FuzzInstance min =
      shrink_instance(inst, [](const FuzzInstance&) { return true; });
  // Everything optional must be stripped: one statement, one processor,
  // no memory limit, no extensions, minimal extents.
  EXPECT_EQ(min.stmts.size(), 1u);
  EXPECT_EQ(min.procs, 1u);
  EXPECT_EQ(min.mem_limit_node_bytes, 0u);
  EXPECT_FALSE(min.replication);
  EXPECT_FALSE(min.liveness);
  EXPECT_FALSE(min.characterized);
  for (const auto& [name, extent] : min.indices) {
    EXPECT_EQ(extent, 1u) << name;
  }
}

TEST(FuzzShrink, NeverFailingPredicateReturnsTheOriginal) {
  const FuzzInstance inst = generate_instance(6, {});
  const FuzzInstance same =
      shrink_instance(inst, [](const FuzzInstance&) { return false; });
  EXPECT_EQ(same.program(), inst.program());
  EXPECT_EQ(same.describe(), inst.describe());
}

TEST(FuzzShrink, ShrunkInstanceStillBuilds) {
  FuzzInstance inst = generate_instance(11, {});
  // Fail whenever the instance still has at least two statements: the
  // shrinker must deliver a buildable two-statement reproducer.
  const FuzzInstance min = shrink_instance(
      inst, [](const FuzzInstance& c) { return c.stmts.size() >= 2; });
  if (inst.stmts.size() >= 2) {
    EXPECT_EQ(min.stmts.size(), 2u);
    EXPECT_GT(build_tree(min).size(), 0u);
  }
}

// ----------------------------------------------------------- brute force

TEST(FuzzShrink, FreshInputNamesNeverCollide) {
  // Regression: the old std::atoi suffix parse silently folded an
  // overflowing or malformed X-name suffix to an unspecified value (UB
  // above INT_MAX), so an instance containing such a name could be
  // handed a "fresh" name it already used.  The checked parser skips
  // unparseable suffixes and the linear probe clears any residue.
  FuzzInstance inst;
  FuzzStmt s;
  s.result = "C";
  s.result_dims = {"i"};
  s.left = "X99999999999999999999";  // overflows uint64 — must be skipped
  s.left_dims = {"i"};
  s.right = "X0";
  s.right_dims = {"i"};
  inst.stmts = {s};
  EXPECT_EQ(fresh_input_name(inst), "X1");

  // A huge *valid* suffix advances the counter past it.
  inst.stmts[0].left = "X18446744073709551614";
  EXPECT_EQ(fresh_input_name(inst), "X18446744073709551615");

  // Non-numeric X-names are not numbers either.
  inst.stmts[0].left = "Xylophone";
  inst.stmts[0].right = "X0";
  EXPECT_EQ(fresh_input_name(inst), "X1");

  // The probe steps over every used name even when suffixes are dense.
  inst.stmts[0].left = "X1";
  EXPECT_EQ(fresh_input_name(inst), "X2");
}

TEST(FuzzBrute, SingleMatmulEnumerationIsExhaustive) {
  // One contraction, no fusion pressure: the brute root frontier must
  // contain a solution for every result distribution it kept, all with
  // finite cost and non-zero memory.
  FuzzInstance inst;
  inst.seed = 0;
  inst.indices = {{"i", 4}, {"j", 4}, {"k", 4}};
  FuzzStmt s;
  s.result = "C";
  s.result_dims = {"i", "j"};
  s.sum_dims = {"k"};
  s.left = "A";
  s.left_dims = {"i", "k"};
  s.right = "B";
  s.right_dims = {"k", "j"};
  inst.stmts = {s};
  const ContractionTree tree = build_tree(inst);
  const AnalyticModel model = analytic_model_of(inst);
  const BruteResult br = brute_force(tree, model, config_of(inst));
  ASSERT_FALSE(br.skipped);
  ASSERT_FALSE(br.root.empty());
  for (const BruteSol& sol : br.root) {
    EXPECT_GT(sol.fp.mem, 0u);
    EXPECT_GE(sol.fp.cost, 0.0);
  }
}

}  // namespace
}  // namespace tce::fuzz
