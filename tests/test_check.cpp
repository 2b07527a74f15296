// Tests for tce-check (src/tce/check/, docs/STATIC_ANALYSIS.md).
//
// Two kinds of tests live here:
//
//  * fixture tests: synthetic repository trees written to a temp dir,
//    one per rule family, exercising the positive case, the
//    suppression comment, and the allowlist;
//  * registry pin tests: the real repository's identifier registries
//    (rule ids, exit codes, metric names, schema strings) spelled out
//    and checked against the docs.  These lists are also what makes
//    every registry identifier "referenced by a test" — tce-check's
//    check.registry.untested rule keys on exactly this file.
//
// TCE_REPO_ROOT is injected by tests/CMakeLists.txt and points at the
// source tree, so the pin tests read the same docs tce-check does.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tce/check/check.hpp"

namespace tce::check {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ fixtures

/// A synthetic repository tree under the gtest temp dir.  Layout
/// mirrors the real repo (src/, docs/, tests/) so run_checks() treats
/// it exactly like the real one.
class TempTree {
 public:
  explicit TempTree(const std::string& name)
      : root_(fs::path(::testing::TempDir()) / ("tce_check_" + name)) {
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
  }
  ~TempTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void file(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
  }

  /// Writes empty stubs for every registry doc so a fixture that only
  /// cares about one rule family does not drown in "registry doc is
  /// missing entirely" findings.
  void stub_registry_docs() {
    for (const char* d :
         {"docs/LINT.md", "docs/VERIFIER.md", "docs/STATIC_ANALYSIS.md",
          "docs/FORMATS.md", "docs/OBSERVABILITY.md"}) {
      file(d, "");
    }
  }

  CheckReport run() const {
    CheckConfig cfg;
    cfg.root = root_.string();
    return run_checks(cfg);
  }

 private:
  fs::path root_;
};

int count_rule(const CheckReport& r, const std::string& rule) {
  int n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

bool has(const CheckReport& r, const std::string& rule,
         const std::string& file) {
  for (const Finding& f : r.findings) {
    if (f.rule == rule && f.file == file) return true;
  }
  return false;
}

std::string read_doc(const std::string& rel) {
  const fs::path p = fs::path(TCE_REPO_ROOT) / rel;
  std::ifstream in(p);
  EXPECT_TRUE(in.good()) << p;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

// ------------------------------------------------- banned primitives

TEST(CheckBan, BannedPrimitivesAreFlaggedAtTheirLines) {
  TempTree t("ban_positive");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "unsigned long a(const char* s) { return strtoul(s, nullptr, 10); }\n"
         "int b(const char* s) { return atoi(s); }\n"
         "void c(char* buf) { sprintf(buf, \"x\"); }\n"
         "int* d() { return new int(7); }\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(has(r, "check.ban.strtol", "src/a.cpp"));
  EXPECT_TRUE(has(r, "check.ban.atoi", "src/a.cpp"));
  EXPECT_TRUE(has(r, "check.ban.sprintf", "src/a.cpp"));
  EXPECT_TRUE(has(r, "check.ban.raw-new", "src/a.cpp"));
  for (const Finding& f : r.findings) {
    if (f.rule == "check.ban.strtol") {
      EXPECT_EQ(f.line, 1);
    } else if (f.rule == "check.ban.atoi") {
      EXPECT_EQ(f.line, 2);
    } else if (f.rule == "check.ban.sprintf") {
      EXPECT_EQ(f.line, 3);
    } else if (f.rule == "check.ban.raw-new") {
      EXPECT_EQ(f.line, 4);
    }
  }
}

TEST(CheckBan, NamesInStringsAndCommentsNeverFire) {
  TempTree t("ban_quoted");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "// strtoul and atoi are banned; sprintf too, and new.\n"
         "const char* kMsg = \"use strtoul(x) or atoi(y) or sprintf(z)\";\n"
         "/* new int(7) inside a block comment */\n");
  const CheckReport r = t.run();
  EXPECT_EQ(count_rule(r, "check.ban.strtol"), 0) << r.str();
  EXPECT_EQ(count_rule(r, "check.ban.atoi"), 0);
  EXPECT_EQ(count_rule(r, "check.ban.sprintf"), 0);
  EXPECT_EQ(count_rule(r, "check.ban.raw-new"), 0);
}

TEST(CheckBan, SuppressionCommentDropsTheFindingAndCountsIt) {
  TempTree t("ban_suppressed");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "// tce-check: allow(check.ban.strtol): fixture exercises the\n"
         "// suppression path.\n"
         "unsigned long f(const char* s) { return strtoul(s, nullptr, 10); }\n");
  // The allow() is two lines above the call: too far; move it adjacent.
  t.file("src/b.cpp",
         "// tce-check: allow(check.ban.strtol): fixture suppression.\n"
         "unsigned long g(const char* s) { return strtoul(s, nullptr, 10); }\n");
  const CheckReport r = t.run();
  // a.cpp: the comment is not adjacent to line 3, so the finding stays.
  EXPECT_TRUE(has(r, "check.ban.strtol", "src/a.cpp"));
  // b.cpp: suppressed, counted.
  EXPECT_FALSE(has(r, "check.ban.strtol", "src/b.cpp")) << r.str();
  EXPECT_GE(r.suppressed, 1u);
}

TEST(CheckBan, ParseModuleIsAllowlistedForStrtol) {
  TempTree t("ban_allowlist");
  t.stub_registry_docs();
  t.file("src/tce/common/parse.cpp",
         "unsigned long impl(const char* s) { return strtoul(s, nullptr, 10); }\n");
  const CheckReport r = t.run();
  EXPECT_EQ(count_rule(r, "check.ban.strtol"), 0) << r.str();
}

// ---------------------------------------------- unchecked arithmetic

TEST(CheckArith, RawMulAndAddOnSizedNamesAreFlagged) {
  TempTree t("arith_positive");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "void f(unsigned long row_bytes, unsigned long num_rows,\n"
         "       unsigned long off_bytes, unsigned long len_bytes) {\n"
         "  unsigned long total = row_bytes * num_rows;\n"
         "  unsigned long end = off_bytes + len_bytes;\n"
         "  (void)total; (void)end;\n"
         "}\n");
  const CheckReport r = t.run();
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-mul"), 1) << r.str();
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-add"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule == "check.arith.unchecked-mul") {
      EXPECT_EQ(f.line, 3);
    } else if (f.rule == "check.arith.unchecked-add") {
      EXPECT_EQ(f.line, 4);
    }
  }
}

TEST(CheckArith, CheckedAndSaturatingRegionsAreExempt) {
  TempTree t("arith_checked");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "void f(unsigned long a_bytes, unsigned long b_bytes,\n"
         "       unsigned long n_words) {\n"
         "  auto p = checked_mul(a_bytes, n_words);\n"
         "  auto q = checked_add(a_bytes + b_bytes, n_words);\n"
         "  auto s = saturating_add(a_bytes, b_bytes);\n"
         "  (void)p; (void)q; (void)s;\n"
         "}\n");
  const CheckReport r = t.run();
  // The raw `+` on line 4 sits inside checked_add's parens — exempt by
  // construction, like every argument of the checked helpers.
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-mul"), 0) << r.str();
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-add"), 0);
}

TEST(CheckArith, UnrelatedNamesAndLoopIndicesAreIgnored) {
  TempTree t("arith_unsized");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "int f(int i, int j, int count) {\n"
         "  int a = i * j;\n"
         "  int b = count + 1;\n"
         "  return a + b;\n"
         "}\n");
  const CheckReport r = t.run();
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-mul"), 0) << r.str();
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-add"), 0);
}

TEST(CheckArith, SuppressionWithRationaleWorks) {
  TempTree t("arith_suppressed");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "unsigned long f(unsigned long a_bytes, unsigned long b_bytes) {\n"
         "  // tce-check: allow(check.arith.unchecked-add): fixture; bounded.\n"
         "  return a_bytes + b_bytes;\n"
         "}\n");
  const CheckReport r = t.run();
  EXPECT_EQ(count_rule(r, "check.arith.unchecked-add"), 0) << r.str();
  EXPECT_GE(r.suppressed, 1u);
}

// ------------------------------------------------- lock annotations

TEST(CheckLock, RawStdMutexIsFlaggedOutsideAnnotationsHeader) {
  TempTree t("lock_raw");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "#include <mutex>\n"
         "std::mutex g_mu;\n"
         "void f() { std::lock_guard<std::mutex> l(g_mu); }\n");
  t.file("src/tce/common/annotations.hpp",
         "struct Mutex { std::mutex raw; };\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(has(r, "check.lock.raw-mutex", "src/a.cpp"));
  // The wrapper header is the one place allowed to spell std::mutex.
  EXPECT_FALSE(
      has(r, "check.lock.raw-mutex", "src/tce/common/annotations.hpp"))
      << r.str();
}

TEST(CheckLock, MutexMemberWithoutGuardedByIsFlagged) {
  TempTree t("lock_unguarded");
  t.stub_registry_docs();
  t.file("src/a.hpp",
         "struct Unguarded {\n"
         "  Mutex mu;\n"
         "  int counter = 0;\n"
         "};\n"
         "struct Guarded {\n"
         "  Mutex mu;\n"
         "  int counter TCE_GUARDED_BY(mu) = 0;\n"
         "};\n");
  const CheckReport r = t.run();
  EXPECT_EQ(count_rule(r, "check.lock.unguarded"), 1) << r.str();
  for (const Finding& f : r.findings) {
    if (f.rule == "check.lock.unguarded") {
      EXPECT_EQ(f.file, "src/a.hpp");
      EXPECT_EQ(f.line, 2);  // anchored at the Mutex member
    }
  }
}

// ------------------------------------------------- registry drift

/// A fixture tree whose lint registry is fully consistent: one id in
/// code, the same id in the docs table, and a test referencing it.
void write_consistent_lint_registry(TempTree& t) {
  t.stub_registry_docs();
  t.file("src/tce/lint/rules.cpp",
         "const char* kRule = \"expr.widget-shape\";\n");
  t.file("docs/LINT.md",
         "| rule | sev | fires when |\n"
         "|---|---|---|\n"
         "| `expr.widget-shape` | E | fixture rule |\n");
  t.file("tests/test_fixture.cpp",
         "// exercises expr.widget-shape\n");
}

TEST(CheckRegistry, ConsistentRegistryIsClean) {
  TempTree t("reg_clean");
  write_consistent_lint_registry(t);
  const CheckReport r = t.run();
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_GT(r.rules_checked, 0u);
}

TEST(CheckRegistry, CorruptedDocsTableTripsBothDirections) {
  TempTree t("reg_corrupt");
  write_consistent_lint_registry(t);
  // Corrupt the table: the id loses its final letter.  The code id is
  // now undocumented AND the doc row names an unknown id.
  t.file("docs/LINT.md",
         "| rule | sev | fires when |\n"
         "|---|---|---|\n"
         "| `expr.widget-shap` | E | fixture rule |\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(
      has(r, "check.registry.undocumented", "src/tce/lint/rules.cpp"))
      << r.str();
  EXPECT_TRUE(has(r, "check.registry.unknown-doc", "docs/LINT.md"));
}

TEST(CheckRegistry, DuplicateDocRowIsFlagged) {
  TempTree t("reg_dup");
  write_consistent_lint_registry(t);
  t.file("docs/LINT.md",
         "| rule | sev | fires when |\n"
         "|---|---|---|\n"
         "| `expr.widget-shape` | E | fixture rule |\n"
         "| `expr.widget-shape` | E | pasted twice |\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(has(r, "check.registry.duplicate", "docs/LINT.md")) << r.str();
}

TEST(CheckRegistry, UnreferencedIdIsUntested) {
  TempTree t("reg_untested");
  write_consistent_lint_registry(t);
  t.file("tests/test_fixture.cpp", "// no reference here\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(
      has(r, "check.registry.untested", "src/tce/lint/rules.cpp"))
      << r.str();
}

TEST(CheckRegistry, ExitCodeValueCollisionIsADuplicate) {
  TempTree t("reg_exit_dup");
  t.stub_registry_docs();
  t.file("src/tce/cli/cli.hpp",
         "enum ExitCode : int {\n"
         "  kExitOk = 0,\n"
         "  kExitAlias = 0,\n"
         "};\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(has(r, "check.registry.duplicate", "src/tce/cli/cli.hpp"))
      << r.str();
}

TEST(CheckRegistry, MetricDriftIsCaughtBothWays) {
  TempTree t("reg_metric");
  t.stub_registry_docs();
  t.file("src/tce/obs/m.cpp",
         "void f() { tce::obs::count(\"fixture.hits\"); }\n");
  t.file("docs/OBSERVABILITY.md",
         "| metric | kind | meaning |\n"
         "|---|---|---|\n"
         "| `fixture.misses` | counter | stale row |\n");
  t.file("tests/test_fixture.cpp", "// fixture.hits\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(has(r, "check.registry.undocumented", "src/tce/obs/m.cpp"))
      << r.str();
  EXPECT_TRUE(has(r, "check.registry.unknown-doc", "docs/OBSERVABILITY.md"));
}

TEST(CheckRegistry, SchemaStringsAreCheckedAgainstFormatsDoc) {
  TempTree t("reg_schema");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "const char* kSchema = \"tce-fixture/1\";\n");
  t.file("docs/FORMATS.md", "The doc only mentions `tce-ghost/9`.\n");
  t.file("tests/test_fixture.cpp", "// tce-fixture/1\n");
  const CheckReport r = t.run();
  EXPECT_TRUE(has(r, "check.registry.undocumented", "src/a.cpp")) << r.str();
  EXPECT_TRUE(has(r, "check.registry.unknown-doc", "docs/FORMATS.md"));
}

// ---------------------------------------------------- determinism

TEST(CheckDeterminism, TwoRunsOverTheSameTreeAreByteIdentical) {
  TempTree t("determinism");
  t.stub_registry_docs();
  t.file("src/a.cpp",
         "int f(const char* s) { return atoi(s); }\n"
         "unsigned long g(unsigned long a_bytes, unsigned long b_bytes) {\n"
         "  return a_bytes * b_bytes;\n"
         "}\n");
  t.file("src/b.cpp", "int* h() { return new int(1); }\n");
  const CheckReport one = t.run();
  const CheckReport two = t.run();
  EXPECT_FALSE(one.ok());  // there must be findings for this to mean much
  EXPECT_EQ(one.str(), two.str());
  EXPECT_EQ(one.json(), two.json());
  EXPECT_NE(one.json().find("\"schema\":\"tce-check/1\""), std::string::npos)
      << one.json();
}

// ------------------------------------------------- the real tree

TEST(CheckTree, RepositoryIsClean) {
  CheckConfig cfg;
  cfg.root = TCE_REPO_ROOT;
  const CheckReport r = run_checks(cfg);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_GT(r.files_scanned, 100u);
  EXPECT_GT(r.rules_checked, 500u);
}

TEST(CheckTree, RepositoryScanIsDeterministic) {
  CheckConfig cfg;
  cfg.root = TCE_REPO_ROOT;
  const CheckReport one = run_checks(cfg);
  const CheckReport two = run_checks(cfg);
  EXPECT_EQ(one.str(), two.str());
  EXPECT_EQ(one.json(), two.json());
}

// ---------------------------------------------- registry pin lists
//
// These lists are the project's identifier registries, spelled out.
// Each entry is asserted to appear in its docs table; together with
// CheckTree.RepositoryIsClean (which cross-checks docs against code)
// this pins code == docs == tests three ways.  If you add an
// identifier, add it here and to its table — tce-check will remind
// you either way.

void expect_all_in(const std::string& doc_rel,
                   const std::vector<const char*>& ids) {
  const std::string text = read_doc(doc_rel);
  for (const char* id : ids) {
    EXPECT_NE(text.find(id), std::string::npos)
        << doc_rel << " is missing `" << id << "`";
  }
}

TEST(CheckRegistryPin, CheckRuleIds) {
  const std::vector<const char*> ids = {
      "check.ban.strtol",          "check.ban.atoi",
      "check.ban.sprintf",         "check.ban.raw-new",
      "check.arith.unchecked-mul", "check.arith.unchecked-add",
      "check.lock.raw-mutex",      "check.lock.unguarded",
      "check.registry.undocumented", "check.registry.unknown-doc",
      "check.registry.duplicate",  "check.registry.untested",
      "check.include.standalone",
  };
  expect_all_in("docs/STATIC_ANALYSIS.md", ids);
  expect_all_in("docs/FORMATS.md", ids);
}

TEST(CheckRegistryPin, VerifierRuleIds) {
  expect_all_in("docs/VERIFIER.md",
                {"structure.steps", "structure.result-name",
                 "structure.array-rows", "cannon.triplet", "cannon.rotation",
                 "cannon.orientation", "repl.layout", "repl.reduce-dim",
                 "fusion.subset", "fusion.nesting", "fusion.effective-closure",
                 "dist.fused-undistributed", "dist.operand-agreement",
                 "reduce.result-dist", "cost.rotation", "cost.redistribution",
                 "cost.reduce", "cost.total", "cost.compute", "mem.array-row",
                 "mem.array-total", "mem.peak-live", "mem.max-message",
                 "mem.limit"});
}

TEST(CheckRegistryPin, LintRuleIdsExercisedOnlyHere) {
  // Most lint ids are exercised one by one in test_lint.cpp; this pins
  // the ones only reachable through internal error paths.
  expect_all_in("docs/LINT.md", {"expr.invalid"});
}

TEST(CheckRegistryPin, MetricNames) {
  expect_all_in(
      "docs/OBSERVABILITY.md",
      {"cannon.phase_s",      "cannon.replicated_runs",
       "cannon.runs",         "cannon.steps",
       "kernel.gemm_s",       "kernel.pack_bytes",
       "kernel.tiled_calls",  "opt.bounded",
       "opt.candidates",
       "opt.curve.extrapolations", "opt.curve.lookups",
       "opt.dominated",       "opt.frontier",
       "opt.infeasible",      "opt.kept",
       "opt.node_candidates", "opt.node_wall_s",
       "opt.nodes",           "opt.prover_infeasible",
       "opt.redistributions", "opt.search_wall_s",
       "plan.latency_s",      "serve.cache.evict",
       "serve.cache.hit",     "serve.cache.miss",
       "serve.cache.size",    "serve.connections",
       "serve.errors",        "serve.infeasible",
       "serve.rejected",      "serve.request.hit_s",
       "serve.request.miss_s", "serve.request_s",
       "serve.requests",      "serve.verify.mismatch",
       "serve.verify.ok",     "simnet.bytes",
       "simnet.flows",        "simnet.link_busy_s",
       "simnet.phases",       "verify.diagnostics",
       "verify.runs"});
}

TEST(CheckRegistryPin, SchemaStrings) {
  expect_all_in("docs/FORMATS.md", {"tce-bench/1", "tce-check/1",
                                    "tce-lint/1", "tce-serve/1"});
}

}  // namespace
}  // namespace tce::check
