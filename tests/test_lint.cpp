// Tests for tce/lint: the static analyzer's rule catalog (one fixture
// per rule id), the memory-infeasibility prover's exact boundary
// behavior on hand-computed instances, the prover/optimizer fast-path
// agreement, and the prover's soundness over the pinned fuzz window.

#include <gtest/gtest.h>

#include <algorithm>

#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/fuzz/harness.hpp"
#include "tce/lint/lint.hpp"
#include "tce/verify/verifier.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using lint::Diagnostic;
using lint::LintConfig;
using lint::LintReport;
using lint::ProverResult;
using lint::Severity;

bool has_rule(const LintReport& r, const std::string& rule) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

int count_errors(const LintReport& r) {
  int n = 0;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

LintReport lint_text(const std::string& text,
                     const CharacterizationTable* table = nullptr,
                     LintConfig cfg = {}, std::uint32_t procs = 16) {
  return lint::lint_program(parse_program(text),
                            ProcGrid::make(procs, 2), table, cfg);
}

// ----------------------------------------------------- structural rules

TEST(LintRules, CleanProgramHasNoDiagnostics) {
  const LintReport r = lint_text(testing::kPaperProgram);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.diagnostics.empty()) << r.str();
  EXPECT_GT(r.rules_checked, 0u);
}

TEST(LintRules, ResultIndices) {
  const LintReport r = lint_text(R"(
    index a, b, c = 8
    R[a,b] = sum[c] X[a,c] * Y[c,b]
    W[a,c] = sum[b] X[a,b] * Y[b,b]
  )");
  // W's unsummed factor indices are {a,b} (Y[b,b] contributes b), not
  // {a,c}; Y[b,b] additionally repeats a dimension.
  EXPECT_TRUE(has_rule(r, "expr.result-indices"));
  EXPECT_TRUE(has_rule(r, "expr.repeated-dim"));
  EXPECT_FALSE(r.ok());
}

TEST(LintRules, SumNotInFactors) {
  const LintReport r = lint_text(R"(
    index a, b, z = 8
    R[a] = sum[b,z] X[a,b] * Y[b]
  )");
  EXPECT_TRUE(has_rule(r, "expr.sum-not-in-factors"));
}

TEST(LintRules, InconsistentArity) {
  const LintReport r = lint_text(R"(
    index a, b, c = 8
    R[a,c] = sum[b] X[a,b] * Y[b,c]
    Q[a,b] = sum[c] X[a,c] * Z[c,b]
  )");
  // X is used as X[a,b] and as X[a,c] — different index lists.
  EXPECT_TRUE(has_rule(r, "expr.inconsistent-arity"));
}

TEST(LintRules, RedefinitionAndReconsumption) {
  const LintReport r = lint_text(R"(
    index a, b, c, d = 8
    T[a,c] = sum[b] X[a,b] * Y[b,c]
    T[a,c] = sum[d] X[a,d] * Z[d,c]
    R[a] = sum[c] T[a,c] * u[c]
    Q[a] = sum[c] T[a,c] * v[c]
  )");
  EXPECT_TRUE(has_rule(r, "expr.redefinition"));
  EXPECT_TRUE(has_rule(r, "expr.reconsumed"));
}

TEST(LintRules, NeedsBinarizationIsAWarningOnly) {
  const LintReport r = lint_text(R"(
    index a, b, c, d = 8
    R[a,d] = sum[b,c] X[a,b] * Y[b,c] * Z[c,d]
  )");
  EXPECT_TRUE(has_rule(r, "expr.needs-binarization"));
  EXPECT_TRUE(r.ok());  // a warning, not an error
}

TEST(LintRules, HygieneWarnings) {
  const LintReport r = lint_text(R"(
    index a, b = 8
    index s = 1
    index u = 16
    R[a,s] = sum[b] X[a,b] * Y[b,s]
  )");
  EXPECT_TRUE(has_rule(r, "expr.unused-index"));
  EXPECT_TRUE(has_rule(r, "expr.extent-one-index"));
  EXPECT_TRUE(r.ok());
}

TEST(LintRules, NameShadowing) {
  // Built programmatically: a tensor deliberately named like an index.
  ParsedProgram p;
  const IndexId a = p.space.add("a", 8);
  const IndexId b = p.space.add("b", 8);
  ParsedStatement st;
  st.result = TensorRef{"R", {a}};
  st.sum_indices = IndexSet::single(b);
  st.factors = {TensorRef{"a", {a, b}}, TensorRef{"Y", {b}}};
  p.statements.push_back(st);
  const LintReport r =
      lint::lint_program(p, ProcGrid::make(16, 2), nullptr, {});
  EXPECT_TRUE(has_rule(r, "expr.name-shadowing"));
}

// ----------------------------------------------------------- tree rules

TEST(LintRules, BatchIndicesIsAnError) {
  const LintReport r = lint_text(R"(
    index i, j, k = 8
    C[i,j] = sum[k] A[i,k] * B[i,k,j]
  )");
  EXPECT_TRUE(has_rule(r, "tree.batch-indices"));
  EXPECT_FALSE(r.ok());
}

TEST(LintRules, RankInflationAndDegenerateSum) {
  const LintReport r = lint_text(R"(
    index a, b, c, d = 8
    index s = 1
    T[a,b,c,d] = sum[s] P[a,b,s] * Q[c,d,s]
    R[a,c] = sum[b,d] T[a,b,c,d] * V[b,d]
  )");
  EXPECT_TRUE(has_rule(r, "tree.rank-inflation"));
  EXPECT_TRUE(has_rule(r, "tree.degenerate-sum-index"));
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------- model rules

TEST(LintRules, GridUntileable) {
  const CharacterizationTable table = characterize_itanium(16);
  const LintReport r = lint_text(R"(
    index a, b, c = 2
    R[a,c] = sum[b] X[a,b] * Y[b,c]
  )", &table);
  // Extent 2 < grid edge 4: no dimension can cover the grid.
  EXPECT_TRUE(has_rule(r, "model.grid-untileable"));
  EXPECT_TRUE(r.ok());
}

TEST(LintRules, CurveExtrapolationWhenSamplesAreDisjoint) {
  CharacterizationTable table;
  table.grid = ProcGrid::make(16, 2);
  // Sampled only in the terabyte range; an 8^2-extent program's blocks
  // are thousands of bytes, so every query extrapolates.
  table.rotate_dim1.add_sample(1'000'000'000'000ull, 1.0);
  table.rotate_dim1.add_sample(2'000'000'000'000ull, 2.0);
  const LintReport r = lint_text(R"(
    index a, b, c = 8
    R[a,c] = sum[b] X[a,b] * Y[b,c]
  )", &table);
  EXPECT_TRUE(has_rule(r, "model.curve-extrapolation"));

  const CharacterizationTable sane = characterize_itanium(16);
  const LintReport ok = lint_text(testing::kPaperProgram, &sane);
  EXPECT_FALSE(has_rule(ok, "model.curve-extrapolation")) << ok.str();
}

// ------------------------------------------------- batched determinism

TEST(LintReporting, AllIndependentErrorsInOneRun) {
  const std::string text = R"(
    index a, b, c, z = 8
    R[a,b] = sum[c] X[a,c] * Y[c,c]
    Q[a] = sum[z] X[a,c] * W[c]
  )";
  const LintReport r = lint_text(text);
  // One run reports the repeated dim, the result mismatch AND the dead
  // summation index — not just the first failure.
  EXPECT_TRUE(has_rule(r, "expr.repeated-dim"));
  EXPECT_TRUE(has_rule(r, "expr.result-indices"));
  EXPECT_TRUE(has_rule(r, "expr.sum-not-in-factors"));
  EXPECT_GE(count_errors(r), 3);

  // Deterministic: same input, same report, byte for byte.
  EXPECT_EQ(r.str(), lint_text(text).str());
}

TEST(LintReporting, StructuralErrorsHelperIsErrorsOnly) {
  const std::vector<Diagnostic> errs = lint::structural_errors(
      parse_program(R"(
        index a, b, c = 8
        R[a,b] = sum[c] X[a,c] * Y[c,c]
      )"));
  ASSERT_FALSE(errs.empty());
  for (const Diagnostic& d : errs) {
    EXPECT_EQ(d.severity, Severity::kError);
  }
}

// ------------------------------------------------------------ prover

// One 8192^2 matrix contraction on a 4x4 grid, 2 procs/node: each of
// the three arrays is at best (8192/4)^2 * 8 = 32 MiB per processor,
// and neither the inputs nor the root can be fused away, so the bound
// is exactly 3 * 32 MiB * 2 = 201326592 bytes per node.
constexpr const char* kMatmul8k = R"(
  index a, b, k = 8192
  S[a,b] = sum[k] A[a,k] * B[k,b]
)";
constexpr std::uint64_t kMatmul8kBound = 201'326'592ull;

ContractionTree matmul8k_tree() {
  return ContractionTree::from_sequence(parse_formula_sequence(kMatmul8k));
}

TEST(LintProver, ExactBoundOnHandComputedInstance) {
  const ContractionTree tree = matmul8k_tree();
  LintConfig cfg;
  cfg.mem_limit_node_bytes = 1;  // anything nonzero; bound is limit-free
  const ProverResult r =
      lint::prove_memory(tree, ProcGrid::make(16, 2), cfg);
  EXPECT_EQ(r.root_lower_bound_node_bytes, kMatmul8kBound);
}

TEST(LintProver, BoundaryLimitExactlyAtBoundIsNotCertified) {
  // The prover's comparison is strict: a limit equal to the bound gets
  // no certificate (silence — which promises nothing about the search).
  const ContractionTree tree = matmul8k_tree();
  LintConfig cfg;
  cfg.mem_limit_node_bytes = kMatmul8kBound;
  EXPECT_FALSE(
      lint::prove_infeasible(tree, ProcGrid::make(16, 2), cfg).has_value());
}

TEST(LintProver, BoundaryOneByteUnderIsCertified) {
  const ContractionTree tree = matmul8k_tree();
  LintConfig cfg;
  cfg.mem_limit_node_bytes = kMatmul8kBound - 1;
  const auto cert =
      lint::prove_infeasible(tree, ProcGrid::make(16, 2), cfg);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->node, "S");
  EXPECT_EQ(cert->lower_bound_node_bytes, kMatmul8kBound);
  EXPECT_EQ(cert->mem_limit_node_bytes, kMatmul8kBound - 1);
  EXPECT_NE(cert->str().find("rule=mem.infeasible"), std::string::npos);
  EXPECT_NE(cert->str().find("node=S"), std::string::npos);
}

TEST(LintProver, FusionShrinksTheIntermediateTerm) {
  // Chain of two contractions, extents 64, 4x4 grid: every 2-D array is
  // at best (64/4)^2 * 8 = 2048 bytes/processor.  Unfused, the summed
  // bound is 5 arrays * 2048; with fusion the intermediate U (both of
  // whose dims recur in the parent's loops) collapses to one element.
  const std::string chain = R"(
    index a, b, c, d = 64
    U[a,c] = sum[b] A[a,b] * B[b,c]
    R[a,d] = sum[c] U[a,c] * C[c,d]
  )";
  const ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(chain));
  const ProcGrid grid = ProcGrid::make(16, 2);

  LintConfig unfused;
  unfused.mem_limit_node_bytes = 1;
  unfused.enable_fusion = false;
  EXPECT_EQ(lint::prove_memory(tree, grid, unfused)
                .root_lower_bound_node_bytes,
            5 * 2048ull * 2);

  LintConfig fused = unfused;
  fused.enable_fusion = true;
  EXPECT_EQ(
      lint::prove_memory(tree, grid, fused).root_lower_bound_node_bytes,
      (4 * 2048ull + 8) * 2);

  // Liveness accounting: leaves (3 * 2048) + the largest single
  // internal array (2048 unfused).
  LintConfig live = unfused;
  live.liveness_aware = true;
  EXPECT_EQ(
      lint::prove_memory(tree, grid, live).root_lower_bound_node_bytes,
      (3 * 2048ull + 2048) * 2);
}

TEST(LintProver, CertificateAgreesWithRawSearch) {
  // When the prover certifies infeasibility, the DP with the fast path
  // disabled must independently reach the same verdict.
  const ContractionTree tree = matmul8k_tree();
  const CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kMatmul8kBound - 1;
  cfg.enable_static_prover = false;
  EXPECT_THROW(optimize(tree, model, cfg), InfeasibleError);

  // With the fast path, the exception carries the prover's certificate,
  // which the daemon answers with.
  cfg.enable_static_prover = true;
  const std::optional<lint::InfeasibilityCertificate> cert =
      lint::prove_infeasible(tree, model.grid(), lint_config_of(cfg));
  ASSERT_TRUE(cert.has_value());
  try {
    optimize(tree, model, cfg);
    FAIL() << "expected InfeasibleError";
  } catch (const lint::CertifiedInfeasibleError& e) {
    EXPECT_EQ(std::string(e.what()), "statically infeasible: " + cert->str());
    EXPECT_EQ(e.certificate().str(), cert->str());
    EXPECT_NE(std::string(e.what()).find("mem.infeasible"),
              std::string::npos);
  }
}

TEST(LintProver, BoundIsStampedIntoStatsAndJson) {
  const ContractionTree tree = testing::paper_tree();
  const CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = testing::kNodeLimit4GB;
  const OptimizedPlan plan = optimize(tree, model, cfg);
  EXPECT_GT(plan.stats.prover_lb_node_bytes, 0u);
  // The certified bound can never exceed what the chosen plan spends.
  EXPECT_LE(plan.stats.prover_lb_node_bytes, plan.bytes_per_node());

  const OptimizedPlan back =
      plan_from_json(plan_to_json(plan, tree.space()), tree);
  EXPECT_EQ(back.stats.prover_lb_node_bytes,
            plan.stats.prover_lb_node_bytes);

  // Prover off (or no limit): no bound is claimed.
  OptimizerConfig off = cfg;
  off.enable_static_prover = false;
  EXPECT_EQ(optimize(tree, model, off).stats.prover_lb_node_bytes, 0u);
}

TEST(LintProver, NeverRejectsAFeasibleInstanceOnPinnedWindow) {
  // The soundness property the fuzz oracle enforces, pinned to the
  // documented CI window: seeds 1..200, lint oracle only.
  fuzz::FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 200;
  opts.oracle = "lint";
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts);
  EXPECT_TRUE(report.failures.empty()) << report.str();
  EXPECT_GT(report.executed.at("lint"), 0);
}

// ------------------------------------------- communication lower bounds

// One 8x8x8 matmul on a 2x2 grid: every array is 64 words, every
// rotation pair moves (edge-1)*(wX+wY)/P = 1*128/4 = 32 words/proc.
constexpr const char* kMatmul8 = R"(
  index i, j, k = 8
  C[i,j] = sum[k] A[i,k] * B[k,j]
)";

ContractionTree tree_of(const char* text) {
  return ContractionTree::from_sequence(parse_formula_sequence(text));
}

TEST(CommProver, ExactStructuralBoundOnMatmul) {
  const ContractionTree tree = tree_of(kMatmul8);
  const lint::CommBoundResult r =
      lint::prove_comm(tree, ProcGrid::make(4, 2), {});
  EXPECT_EQ(r.root_lb_words, 32u);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].lb_struct_words, 32u);
  EXPECT_EQ(r.nodes[0].lb_mem_words, 0u);
  EXPECT_FALSE(r.nodes[0].limit_dominated);
  EXPECT_NE(r.str().find("certificate rule=comm.lb-certificate"),
            std::string::npos);
}

TEST(CommProver, ExtentOneIndexShrinksTheCheapestRotationPair) {
  // i has extent 1: A and C collapse to 8 words each, so the i-rotation
  // pair (A,C) costs (8+8)/4 = 4 words/proc — the bound must pick it.
  const ContractionTree tree = tree_of(R"(
    index i = 1
    index j, k = 8
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )");
  const lint::CommBoundResult r =
      lint::prove_comm(tree, ProcGrid::make(4, 2), {});
  EXPECT_EQ(r.root_lb_words, 4u);
}

TEST(CommProver, ReplicationEscapeHatchShrinksTheBound) {
  // wA = 4, wB = wC = 64: the best rotation pair costs (4+64)/4 = 17,
  // but allgathering the small operand costs only (P-1)*4/P = 3.  The
  // relaxation must honor the cheaper template when it is available —
  // and must NOT assume it when it is not.
  const ContractionTree tree = tree_of(R"(
    index i, k = 2
    index j = 32
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )");
  const ProcGrid grid = ProcGrid::make(4, 2);
  EXPECT_EQ(lint::prove_comm(tree, grid, {}).root_lb_words, 17u);
  lint::CommBoundConfig cfg;
  cfg.enable_replication = true;
  EXPECT_EQ(lint::prove_comm(tree, grid, cfg).root_lb_words, 3u);
}

TEST(CommProver, MemoryTermDominatesUnderTightCap) {
  // 32^3 matmul, P = 16, M = 16 bytes / (8 * 2 procs/node) = 1 word:
  // the pair-counting term gives 32768/(4*16*1) - 1 = 511 words/proc,
  // above the structural 3*(1024+1024)/16 = 384 — the cap, not the
  // geometry, dominates.
  const ContractionTree tree = tree_of(R"(
    index i, j, k = 32
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )");
  lint::CommBoundConfig cfg;
  cfg.mem_limit_node_bytes = 16;
  const lint::CommBoundResult r =
      lint::prove_comm(tree, ProcGrid::make(16, 2), cfg);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].lb_struct_words, 384u);
  EXPECT_EQ(r.nodes[0].lb_mem_words, 511u);
  EXPECT_EQ(r.root_lb_words, 511u);
  EXPECT_TRUE(r.nodes[0].limit_dominated);
}

TEST(CommProver, LimitDominatedLintWarningCoOccursWithInfeasibility) {
  LintConfig cfg;
  cfg.mem_limit_node_bytes = 16;
  cfg.comm_bounds = true;
  const LintReport r = lint_text(R"(
    index i, j, k = 32
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )", nullptr, cfg);
  EXPECT_TRUE(has_rule(r, "mem.infeasible"));
  EXPECT_TRUE(has_rule(r, "comm.lb-certificate"));
  EXPECT_TRUE(has_rule(r, "comm.limit-dominated"));
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule == "comm.lb-certificate") {
      EXPECT_EQ(d.severity, Severity::kInfo);
    }
    if (d.rule == "comm.limit-dominated") {
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
  ASSERT_EQ(r.comm_certificates.size(), 1u);
  EXPECT_EQ(r.comm_certificates[0].root_lb_words, 511u);
}

TEST(CommProver, ForestGetsOneCertificatePerTree) {
  LintConfig cfg;
  cfg.comm_bounds = true;
  const LintReport r = lint_text(R"(
    index a, b, c = 8
    index d, e, f = 8
    R[a,b] = sum[c] X[a,c] * Y[c,b]
    S[d,e] = sum[f] U[d,f] * V[f,e]
  )", nullptr, cfg);
  ASSERT_EQ(r.comm_certificates.size(), 2u);
  EXPECT_EQ(r.comm_certificates[0].root, "R");
  EXPECT_EQ(r.comm_certificates[1].root, "S");
  EXPECT_GT(r.comm_certificates[0].root_lb_words, 0u);
  EXPECT_GT(r.comm_certificates[1].root_lb_words, 0u);
}

TEST(CommProver, GapIsExactlyOneOnOptimalMatmul) {
  // The DP's optimal 8^3 matmul plan rotates two 16-word blocks once
  // around the 2x2 grid — 32 words/proc, meeting the certified bound
  // exactly: the certificate proves this plan communication-optimal.
  const ContractionTree tree = tree_of(kMatmul8);
  const AnalyticModel model(ProcGrid::make(4, 2), AnalyticParams{});
  const OptimizedPlan plan = optimize(tree, model);
  EXPECT_EQ(plan.stats.comm_lb_words, 32u);
  EXPECT_EQ(plan.stats.achieved_comm_words, 32u);
  EXPECT_DOUBLE_EQ(plan.stats.comm_gap_ratio, 1.0);
}

TEST(CommProver, BoundIsInvariantUnderMemoryAccountingMode) {
  // Liveness-aware vs summed accounting changes which plans fit, never
  // the certificate: the bound relaxes distribution and fusion choices
  // identically under both modes.
  const ContractionTree tree = testing::paper_tree();
  const CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = testing::kNodeLimit4GB;
  const OptimizedPlan summed = optimize(tree, model, cfg);
  cfg.liveness_aware = true;
  const OptimizedPlan live = optimize(tree, model, cfg);
  EXPECT_GT(summed.stats.comm_lb_words, 0u);
  EXPECT_EQ(summed.stats.comm_lb_words, live.stats.comm_lb_words);
  EXPECT_LE(summed.stats.comm_lb_words, summed.stats.achieved_comm_words);
  EXPECT_LE(live.stats.comm_lb_words, live.stats.achieved_comm_words);
}

TEST(CommProver, ReplicatedPlansRespectTheBound) {
  // With the replicate-compute-reduce template enabled the bound uses
  // the allgather relaxation; the stamped stats must still satisfy
  // LB <= achieved, and the verifier's independent recount of the words
  // (rule cost.total) must agree.
  const ContractionTree tree = testing::paper_tree();
  const CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = testing::kNodeLimit4GB;
  cfg.enable_replication_template = true;
  const OptimizedPlan plan = optimize(tree, model, cfg);
  EXPECT_LE(plan.stats.comm_lb_words, plan.stats.achieved_comm_words);
  const VerifyReport r = verify_plan(tree, model, plan);
  EXPECT_TRUE(r.diagnostics.empty()) << r.str(tree);
}

// ------------------------------------------------------- report format

TEST(LintReporting, MemInfeasibleDiagnosticCarriesCertificate) {
  LintConfig cfg;
  cfg.mem_limit_node_bytes = kMatmul8kBound - 1;
  const LintReport r = lint_text(kMatmul8k, nullptr, cfg);
  EXPECT_TRUE(has_rule(r, "mem.infeasible"));
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_EQ(r.certificate->lower_bound_node_bytes, kMatmul8kBound);
  EXPECT_NE(r.str().find("certificate rule=mem.infeasible"),
            std::string::npos);
  EXPECT_NE(r.str().find("rules checked"), std::string::npos);
}

}  // namespace
}  // namespace tce
