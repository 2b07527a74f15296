// Tests for tce/cli: argument handling, size parsing, and the three
// subcommands end to end (against temp files).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tce/cli/cli.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/fuzz/oracles.hpp"
#include "tce/serve/server.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

class TempFile {
 public:
  TempFile(const std::string& name, const std::string& contents)
      : path_(std::string(::testing::TempDir()) + name) {
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kSmallProgram = R"(
  index a, b, c = 64
  C[a,c] = sum[b] X[a,b] * Y[b,c]
)";

// ----------------------------------------------------------- byte sizes

TEST(ParseByteSize, AcceptsSuffixes) {
  EXPECT_EQ(parse_byte_size("1000"), 1000u);
  EXPECT_EQ(parse_byte_size("4GB"), 4'000'000'000u);
  EXPECT_EQ(parse_byte_size("1.5MB"), 1'500'000u);
  EXPECT_EQ(parse_byte_size("27MB"), 27'000'000u);
  EXPECT_EQ(parse_byte_size("2 KB"), 2'000u);
  EXPECT_EQ(parse_byte_size("10B"), 10u);
  EXPECT_EQ(parse_byte_size("0"), 0u);
  EXPECT_EQ(parse_byte_size("0.0GB"), 0u);
}

TEST(ParseByteSize, RejectsGarbage) {
  EXPECT_THROW(parse_byte_size("GB"), Error);
  EXPECT_THROW(parse_byte_size("12XB"), Error);
  // The number needs a digit and takes at most one dot.
  EXPECT_THROW(parse_byte_size("."), Error);
  EXPECT_THROW(parse_byte_size("..5"), Error);
  EXPECT_THROW(parse_byte_size(".GB"), Error);
  EXPECT_THROW(parse_byte_size("1.2.3GB"), Error);
  // Too many digits for a double.
  EXPECT_THROW(parse_byte_size(std::string(400, '9')), Error);
  // Positive but below one byte: it would truncate to 0 = unlimited.
  EXPECT_THROW(parse_byte_size("0.5B"), Error);
  EXPECT_THROW(parse_byte_size(".0001KB"), Error);
}

// ------------------------------------------------------------------- CLI

TEST(Cli, HelpPrintsUsage) {
  for (auto args : {std::vector<std::string>{},
                    std::vector<std::string>{"help"},
                    std::vector<std::string>{"--help"}}) {
    CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
  }
}

TEST(Cli, UnknownCommandFails) {
  CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("unknown command"), std::string::npos);
}

TEST(Cli, PlanSmallProgram) {
  TempFile f("cli_small.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("C[a,c]"), std::string::npos);
  EXPECT_NE(r.output.find("total communication"), std::string::npos);
}

TEST(Cli, PlanWithPseudocodeAndLimit) {
  TempFile f("cli_small2.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--procs", "4", "--mem-limit",
                         "4GB", "--pseudocode"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("cannon"), std::string::npos);
}

TEST(Cli, PlanVerifyAcceptsOptimizerOutput) {
  TempFile f("cli_verify.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--procs", "4", "--mem-limit",
                         "4GB", "--verify"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("total communication"), std::string::npos);
}

TEST(Cli, PlanVerifyCoversForests) {
  TempFile f("cli_verify_forest.tce", R"(
    index a, b, c = 64
    index i, j = 32
    X[a,b] = sum[i] P[a,i] * Q[i,b]
    Y[a,c] = sum[j] U[a,j] * R[j,c]
  )");
  CliResult r = run_cli({"plan", f.path(), "--procs", "4", "--verify"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("output X"), std::string::npos);
}

TEST(Cli, PlanStatsPrintsSearchCounters) {
  TempFile f("cli_stats.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--procs", "4", "--stats"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("search statistics:"), std::string::npos);
  EXPECT_NE(r.output.find("candidates"), std::string::npos);
  EXPECT_NE(r.output.find("opt.candidates"), std::string::npos)
      << "metrics table should follow the stats block";
}

TEST(Cli, PlanTraceWritesLoadableTraceEvents) {
  TempFile f("cli_trace.tce", kSmallProgram);
  const std::string trace =
      std::string(::testing::TempDir()) + "cli_trace_out.json";
  CliResult r = run_cli(
      {"plan", f.path(), "--procs", "4", "--trace", trace});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  std::ifstream in(trace);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(trace.c_str());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("dp.node"), std::string::npos);
}

TEST(Cli, PlanInfeasibleReturnsCode2) {
  TempFile f("cli_small3.tce", kSmallProgram);
  CliResult r = run_cli(
      {"plan", f.path(), "--procs", "4", "--mem-limit", "1KB"});
  EXPECT_EQ(r.exit_code, kExitInfeasible);
  EXPECT_NE(r.error.find("infeasible"), std::string::npos);
}

TEST(Cli, MemLimitBelowOneByteIsAUsageError) {
  // 0.5B once truncated to 0, which means unlimited, while 1B is
  // infeasible; --mem-limit 0 still plans as if no limit were given.
  TempFile f("cli_sub_byte.tce", kSmallProgram);
  const std::vector<std::string> args = {"plan", f.path(), "--procs", "4"};
  const auto with_limit = [&](const char* limit) {
    std::vector<std::string> a = args;
    a.insert(a.end(), {"--mem-limit", limit});
    return run_cli(a);
  };
  const CliResult half = with_limit("0.5B");
  EXPECT_EQ(half.exit_code, kExitUsage);
  EXPECT_NE(half.error.find("below one byte"), std::string::npos)
      << half.error;
  EXPECT_EQ(with_limit("1B").exit_code, kExitInfeasible);
  const CliResult zero = with_limit("0");
  ASSERT_EQ(zero.exit_code, kExitOk) << zero.error;
  EXPECT_EQ(zero.output, run_cli(args).output);
}

TEST(Cli, PlanRejectsUnknownFlag) {
  TempFile f("cli_small4.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--bogus"});
  EXPECT_EQ(r.exit_code, kExitUsage);
  EXPECT_NE(r.error.find("unexpected argument"), std::string::npos);
}

TEST(Cli, PlanMissingFileIsAnIoError) {
  CliResult r = run_cli({"plan", "/nonexistent/x.tce"});
  EXPECT_EQ(r.exit_code, kExitIo);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(Cli, MalformedProgramIsAnInputError) {
  TempFile f("cli_garbage.tce", "index a = ; nonsense [[");
  CliResult r = run_cli({"plan", f.path()});
  EXPECT_EQ(r.exit_code, kExitInput);
}

TEST(Cli, ExitCodeValuesArePinned) {
  // docs/FORMATS.md documents the numeric values; the enum is
  // append-only, so these must never move.
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitUsage, 1);
  EXPECT_EQ(kExitInfeasible, 2);
  EXPECT_EQ(kExitIo, 3);
  EXPECT_EQ(kExitInput, 4);
  EXPECT_EQ(kExitVerify, 5);
  EXPECT_EQ(kExitFuzz, 6);
  EXPECT_EQ(kExitInternal, 7);
  EXPECT_EQ(kExitLint, 8);
}

TEST(Cli, OpminBinarizes) {
  TempFile f("cli_opmin.tce", R"(
    index a, b, c, d = 8
    S[a,d] = sum[b,c] X[a,b] * Y[b,c] * Z[c,d]
  )");
  CliResult r = run_cli({"opmin", f.path()});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("optimal:"), std::string::npos);
  EXPECT_NE(r.output.find("full binarized program:"), std::string::npos);
}

TEST(Cli, OpminNothingToDo) {
  TempFile f("cli_opmin2.tce", kSmallProgram);
  CliResult r = run_cli({"opmin", f.path()});
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("nothing to binarize"), std::string::npos);
}

TEST(Cli, CharacterizeEmitsLoadableFile) {
  CliResult r = run_cli({"characterize", "--procs", "16"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("tce-characterization 3"), std::string::npos);

  // Feed the characterization back into plan via --machine.
  TempFile machine("cli_machine.txt", r.output);
  TempFile f("cli_small5.tce", kSmallProgram);
  CliResult p = run_cli(
      {"plan", f.path(), "--procs", "16", "--machine", machine.path()});
  EXPECT_EQ(p.exit_code, 0) << p.error;

  // The file is the bundled cluster's table, the one plan measures
  // without --machine, so planning from it moves no plan.
  for (const auto& [procs, per_node] :
       {std::pair{16u, 2u}, std::pair{16u, 4u}, std::pair{64u, 2u}}) {
    const CliResult c =
        run_cli({"characterize", "--procs", std::to_string(procs),
                 "--procs-per-node", std::to_string(per_node)});
    ASSERT_EQ(c.exit_code, 0) << c.error;
    EXPECT_EQ(c.output, characterize_itanium(procs, per_node).save_string())
        << procs << "x" << per_node;
  }
}

TEST(Cli, MachineFileProcsMismatchIsRejected) {
  // A 16×2 table is refused for any other grid, also for 16 procs at 4
  // per node, rather than planned at the table's grid.
  CliResult c = run_cli({"characterize", "--procs", "16"});
  TempFile machine("cli_machine2.txt", c.output);
  TempFile f("cli_small6.tce", kSmallProgram);
  CliResult p = run_cli(
      {"plan", f.path(), "--procs", "4", "--machine", machine.path()});
  EXPECT_EQ(p.exit_code, 4);
  EXPECT_NE(p.error.find("16 processors"), std::string::npos);
  for (const char* cmd : {"plan", "lint"}) {
    const CliResult r =
        run_cli({cmd, f.path(), "--procs", "16", "--procs-per-node", "4",
                 "--machine", machine.path()});
    EXPECT_EQ(r.exit_code, kExitInput) << cmd << ": " << r.error;
    EXPECT_NE(r.error.find("16 processors at 2 per node"), std::string::npos)
        << cmd << ": " << r.error;
  }
}

TEST(Cli, LegacyMachineFileIsAnInputError) {
  // A version 1 file lacks the collective curves --replication prices
  // with; the loader rejects it as an input error naming the version.
  const std::string v3 = run_cli({"characterize", "--procs", "16"}).output;
  const std::size_t body = v3.find('\n');
  TempFile machine("cli_machine_v1.txt",
                   "tce-characterization 1" +
                       v3.substr(body, v3.find("allgather ") - body));
  TempFile f("cli_small_v1.tce", kSmallProgram);
  CliResult p = run_cli({"plan", f.path(), "--procs", "16", "--machine",
                         machine.path(), "--replication"});
  EXPECT_EQ(p.exit_code, 4) << p.error;
  EXPECT_NE(p.error.find("version 1"), std::string::npos) << p.error;
}

TEST(Cli, ExtensionFlagsAreAccepted) {
  TempFile f("cli_ext.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--procs", "4",
                         "--replication", "--liveness"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("total communication"), std::string::npos);
  EXPECT_NE(r.output.find("liveness-aware"), std::string::npos);
}

TEST(Cli, ValidateComparesPredictedAndSimulated) {
  TempFile f("cli_val.tce", kSmallProgram);
  CliResult r = run_cli({"validate", f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("predicted"), std::string::npos);
  EXPECT_NE(r.output.find("simulated"), std::string::npos);
  EXPECT_NE(r.output.find("TOTAL"), std::string::npos);

  // An allreduce step priced a hair below its replay: the error rounds
  // to zero and prints unsigned.
  TempFile g("cli_val_allreduce.tce",
             "index a = 3\nindex b = 16\nindex d = 8\nindex e = 12\n"
             "T[a,b] = sum[d,e] X[d,a,e,b] * Y[d,e]\n");
  r = run_cli({"validate", g.path(), "--procs", "4", "--mem-limit", "30KB",
               "--replication"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("TOTAL: predicted 0.24 s, simulated 0.24 s "
                          "(0.0% error)"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("-0.0%"), std::string::npos) << r.output;
}

TEST(Cli, ValidateReplicatesOnANonPowerOfTwoGrid) {
  // On 36 procs the collectives are rings; simulate replays the ring
  // the planner priced, so the replicated T2 step lands within 1%.
  TempFile f("cli_val36.tce", ::tce::testing::kPaperProgram);
  CliResult r = run_cli({"validate", f.path(), "--procs", "36",
                         "--mem-limit", "2GB", "--replication"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  double pred = 0, sim = 0;
  const std::size_t at = r.output.find("T2: ");
  ASSERT_NE(at, std::string::npos) << r.output;
  ASSERT_EQ(std::sscanf(r.output.c_str() + at,
                        "T2: predicted %lf s, simulated %lf s", &pred,
                        &sim),
            2)
      << r.output;
  EXPECT_NEAR(sim, pred, 0.01 * pred) << r.output;
}

/// \p json with every wall-clock field ("search_wall_s", per-node
/// "wall_s") set to 0, as the daemon renders plans.
std::string zero_wall_times(const std::string& json) {
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = json.find("wall_s\":"); at != std::string::npos;
       at = json.find("wall_s\":", from)) {
    const std::size_t start = at + 8;
    std::size_t end = start;
    while (end < json.size() &&
           std::string("0123456789.eE+-").find(json[end]) !=
               std::string::npos) {
      ++end;
    }
    out.append(json, from, start - from);
    out += '0';
    from = end;
  }
  out.append(json, from, std::string::npos);
  return out;
}

TEST(Cli, ProcsPerNodeShapesTheBundledCluster) {
  // Without --machine, plan, lint and validate characterize the bundled
  // cluster with the requested processors per node, as the daemon does.
  TempFile f("cli_ppn.tce", ::tce::testing::kPaperProgram);
  for (const char* per_node : {"1", "4"}) {
    for (const char* cmd : {"plan", "lint", "validate"}) {
      std::vector<std::string> args{cmd, f.path(), "--procs", "16",
                                    "--procs-per-node", per_node,
                                    "--mem-limit", "4GB"};
      if (std::string(cmd) == "plan") args.push_back("--verify");
      const CliResult r = run_cli(args);
      EXPECT_EQ(r.exit_code, 0) << cmd << " " << per_node << ": " << r.error;
    }
  }

  // The CLI and the daemon build one OptimizerConfig from their flags and
  // fields, so they answer alike under every planner flag and limit: the
  // same plan bytes, or the same prover certificate.
  serve::ServeOptions options;
  options.threads = 1;
  serve::Server server(options);
  struct Flag {
    const char* cli;
    const char* field;
    bool value;
  };
  for (const Flag& flag : {Flag{"", "", false},
                           Flag{"--no-fusion", "fusion", false},
                           Flag{"--no-redistribution", "redistribution", false},
                           Flag{"--replication", "replication", true},
                           Flag{"--liveness", "liveness", true}}) {
    for (const std::uint64_t limit : {0ull, 4'000'000'000ull}) {
      std::vector<std::string> args{"plan", f.path(), "--procs", "16",
                                    "--procs-per-node", "1", "--json"};
      json::ObjectWriter req;
      req.field("op", "plan")
          .field("program", ::tce::testing::kPaperProgram)
          .field("procs", 16)
          .field("procs_per_node", 1);
      if (*flag.cli != '\0') {
        args.push_back(flag.cli);
        req.field(flag.field, flag.value);
      }
      if (limit != 0) {
        args.insert(args.end(), {"--mem-limit", "4GB"});
        req.field("mem_limit_bytes", limit);
      }
      const std::string what =
          std::string(flag.cli) + (limit != 0 ? " 4GB" : "");
      const CliResult plan = run_cli(args);
      const std::string reply = server.handle(req.str());
      if (plan.exit_code == kExitInfeasible) {
        const json::Value doc = json::parse(reply);
        const json::Value& err = doc.at("error");
        ASSERT_EQ(err.at("code").string, "infeasible") << what << reply;
        const json::Value& cert = err.at("certificate");
        const std::string certified =
            "node=" + cert.at("node").string + " lower_bound_node_bytes=" +
            std::to_string(cert.at("lower_bound_node_bytes").integer);
        EXPECT_NE(plan.error.find(certified), std::string::npos)
            << what << plan.error << reply;
        continue;
      }
      ASSERT_EQ(plan.exit_code, 0) << what << plan.error;
      // "plan" is the reply's last member: drop the envelope's closing
      // brace.
      const std::size_t at = reply.find("\"plan\":");
      ASSERT_NE(at, std::string::npos) << what << reply;
      EXPECT_EQ(zero_wall_times(plan.output),
                reply.substr(at + 7, reply.size() - at - 8) + "\n")
          << what;
    }
  }
}

TEST(Cli, GridOptionsThatFormNoGridAreUsageErrors) {
  // A --procs that is not a positive perfect square, or a
  // --procs-per-node that does not divide it, is a malformed option
  // value for every subcommand that builds a grid.
  TempFile f("cli_grid.tce", kSmallProgram);
  const std::vector<std::vector<std::string>> grids = {
      {"--procs", "8"},
      {"--procs", "0"},
      {"--procs", "15"},
      {"--procs", "16", "--procs-per-node", "3"},
      // Past 32 bits: 2^32 + 16 and 2^32 + 2 must not wrap to 16 and 2.
      {"--procs", "4294967312"},
      {"--procs", "16", "--procs-per-node", "4294967298"}};
  for (const std::string cmd : {"plan", "lint", "validate", "characterize"}) {
    for (const std::vector<std::string>& grid : grids) {
      std::vector<std::string> args{cmd};
      if (cmd != "characterize") args.push_back(f.path());
      args.insert(args.end(), grid.begin(), grid.end());
      const CliResult r = run_cli(args);
      EXPECT_EQ(r.exit_code, kExitUsage)
          << cmd << " " << grid.back() << ": " << r.error;
    }
  }
}

TEST(Cli, ValidateTakesThePlannerFlags) {
  // Unfused, no plan of the paper program fits 4 GB on 16 procs (T1
  // must be fused).  On 64 procs the plan is unfused and redistributes
  // nothing, so either flag leaves the output as it is.
  TempFile f("cli_valflags.tce", ::tce::testing::kPaperProgram);
  EXPECT_EQ(run_cli({"validate", f.path(), "--procs", "16", "--mem-limit",
                     "4GB", "--no-fusion"})
                .exit_code,
            kExitInfeasible);
  const CliResult base =
      run_cli({"validate", f.path(), "--procs", "64", "--mem-limit", "4GB"});
  ASSERT_EQ(base.exit_code, 0) << base.error;
  for (const char* flag : {"--no-fusion", "--no-redistribution"}) {
    const CliResult r = run_cli(
        {"validate", f.path(), "--procs", "64", "--mem-limit", "4GB", flag});
    ASSERT_EQ(r.exit_code, 0) << flag << ": " << r.error;
    EXPECT_EQ(r.output, base.output) << flag;
  }
}

TEST(Cli, OneRankGridPlansAndValidates) {
  // On a 1×1 grid no collective moves anything: characterization
  // records its floor, and planning and the replay still succeed.
  TempFile f("cli_one.tce", ::tce::testing::kPaperProgram);
  const CliResult c =
      run_cli({"characterize", "--procs", "1", "--procs-per-node", "1"});
  EXPECT_EQ(c.exit_code, 0) << c.error;
  for (const char* cmd : {"plan", "validate"}) {
    std::vector<std::string> args{cmd, f.path(), "--procs", "1",
                                  "--procs-per-node", "1"};
    if (std::string(cmd) == "plan") args.push_back("--verify");
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 0) << cmd << ": " << r.error;
  }
}

TEST(Cli, PlanHandlesMultiOutputPrograms) {
  TempFile f("cli_forest.tce", R"(
    index a, b, c, d = 64
    index i, j, k = 32
    T[a,c] = sum[b] X[a,b] * Y[b,c]
    R1[a,d] = sum[c] T[a,c] * Z[c,d]
    R2[i,k] = sum[j] P[i,j] * Q[j,k]
  )");
  CliResult r = run_cli({"plan", f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("output R1:"), std::string::npos);
  EXPECT_NE(r.output.find("output R2:"), std::string::npos);
  EXPECT_NE(r.output.find("total communication"), std::string::npos);
}

TEST(Cli, PlanWithOpminFlagHandlesMultiFactor) {
  TempFile f("cli_multi.tce", R"(
    index a, b, c, d = 16
    S[a,d] = sum[b,c] X[a,b] * Y[b,c] * Z[c,d]
  )");
  CliResult r = run_cli({"plan", f.path(), "--procs", "4", "--opmin"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("S[a,d]"), std::string::npos);
}

// ------------------------------------------------------------------ fuzz

TEST(Cli, FuzzSmokeRunsClean) {
  CliResult r = run_cli(
      {"fuzz", "--runs", "10", "--seed", "1", "--max-nodes", "2"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("0 disagreements"), std::string::npos);
  EXPECT_NE(r.output.find("base seed 1"), std::string::npos);
}

TEST(Cli, FuzzSingleOracleIsSelectable) {
  CliResult r = run_cli(
      {"fuzz", "--runs", "5", "--seed", "3", "--oracle", "verify"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("verify:"), std::string::npos);
  EXPECT_EQ(r.output.find("brute:"), std::string::npos);
}

TEST(Cli, FuzzRejectsUnknownOracle) {
  CliResult r = run_cli({"fuzz", "--oracle", "astrology"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("unknown oracle"), std::string::npos);
  for (const fuzz::Oracle& o : fuzz::oracles()) {
    EXPECT_NE(r.error.find(o.name), std::string::npos) << o.name;
  }
}

TEST(Cli, FuzzRejectsMalformedCount) {
  // 2^32 + 1 does not fit the run count and must not wrap to 1.
  for (const char* runs : {"many", "4294967297"}) {
    CliResult r = run_cli({"fuzz", "--runs", runs});
    EXPECT_EQ(r.exit_code, 1) << runs;
  }
}

// ------------------------------------------------------------------ lint

TEST(Cli, LintCleanProgramExitsZero) {
  TempFile f("cli_lint_clean.tce", kSmallProgram);
  CliResult r = run_cli({"lint", f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, kExitOk) << r.error;
  EXPECT_NE(r.output.find("0 diagnostics"), std::string::npos);
  EXPECT_NE(r.output.find("rules checked"), std::string::npos);
}

TEST(Cli, LintWarningsDoNotFail) {
  TempFile f("cli_lint_warn.tce", R"(
    index a, b, c = 64
    index unused = 8
    C[a,c] = sum[b] X[a,b] * Y[b,c]
  )");
  CliResult r = run_cli({"lint", f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, kExitOk) << r.error;
  EXPECT_NE(r.output.find("warning rule=expr.unused-index"),
            std::string::npos);
}

TEST(Cli, LintErrorsExitEight) {
  TempFile f("cli_lint_err.tce", R"(
    index i, j, k = 16
    C[i,j] = sum[k] A[i,k] * B[i,k,j]
  )");
  CliResult r = run_cli({"lint", f.path(), "--procs", "4"});
  EXPECT_EQ(r.exit_code, kExitLint);
  EXPECT_NE(r.output.find("error node=C rule=tree.batch-indices"),
            std::string::npos);
}

TEST(Cli, LintInfeasibilityCertificateExitsEight) {
  TempFile f("cli_lint_mem.tce", R"(
    index a, b, k = 8192
    S[a,b] = sum[k] A[a,k] * B[k,b]
  )");
  CliResult r = run_cli(
      {"lint", f.path(), "--mem-limit", "100MB"});
  EXPECT_EQ(r.exit_code, kExitLint);
  EXPECT_NE(r.output.find("certificate rule=mem.infeasible node=S"),
            std::string::npos);
  EXPECT_NE(r.output.find("lower_bound_node_bytes="), std::string::npos);
}

TEST(Cli, LintOutputIsDeterministic) {
  TempFile f("cli_lint_det.tce", R"(
    index a, b, c = 64
    index s = 1
    C[a,c] = sum[b] X[a,b] * Y[b,c]
  )");
  CliResult one = run_cli({"lint", f.path(), "--procs", "4"});
  CliResult two = run_cli({"lint", f.path(), "--procs", "4"});
  EXPECT_EQ(one.exit_code, two.exit_code);
  EXPECT_EQ(one.output, two.output);
}

TEST(Cli, LintMissingFileIsAnIoError) {
  CliResult r = run_cli({"lint", "/no/such/file.tce"});
  EXPECT_EQ(r.exit_code, kExitIo);
}

TEST(Cli, HelpDocumentsLintAndExitEight) {
  CliResult r = run_cli({"help"});
  EXPECT_NE(r.output.find("tcemin lint"), std::string::npos);
  EXPECT_NE(r.output.find("8  lint found"), std::string::npos);
}

TEST(Cli, PlanReportsAllStructuralErrorsBatched) {
  // Two independent structural errors: plan's validation failure is
  // upgraded to the full batched listing instead of first-error-wins.
  TempFile f("cli_plan_batched.tce", R"(
    index a, b, c, z = 16
    R[a,b] = sum[c] X[a,c] * Y[c,c]
    Q[a] = sum[z] X[a,c] * W[c]
  )");
  CliResult r = run_cli({"plan", f.path(), "--procs", "4"});
  EXPECT_EQ(r.exit_code, kExitInput);
  EXPECT_NE(r.error.find("structural errors"), std::string::npos);
  EXPECT_NE(r.error.find("rule=expr.repeated-dim"), std::string::npos);
  EXPECT_NE(r.error.find("rule=expr.sum-not-in-factors"),
            std::string::npos);
}

TEST(Cli, FuzzLintOracleIsSelectable) {
  CliResult r = run_cli(
      {"fuzz", "--runs", "5", "--seed", "2", "--oracle", "lint"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("lint:"), std::string::npos);
}

// ----------------------------------------- metrics + flight recorder

TEST(Cli, PlanMetricsWritesPrometheusExposition) {
  TempFile f("cli_metrics.tce", kSmallProgram);
  const std::string metrics =
      std::string(::testing::TempDir()) + "cli_metrics_out.prom";
  // Flag before the program file, as the docs show — option values must
  // not be mistaken for the positional.
  CliResult r = run_cli(
      {"plan", "--metrics", metrics, f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  std::ifstream in(metrics);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(metrics.c_str());
  EXPECT_NE(doc.find("# TYPE tce_plan_latency_s histogram"),
            std::string::npos);
  EXPECT_NE(doc.find("# HELP tce_plan_latency_s plan.latency_s"),
            std::string::npos);
  EXPECT_NE(doc.find("tce_plan_latency_s_bucket{le="), std::string::npos);
  EXPECT_NE(doc.find("tce_plan_latency_s_count 1"), std::string::npos);
  EXPECT_NE(doc.find("tce_opt_candidates_total"), std::string::npos);
}

TEST(Cli, PlanMetricsJsonExtensionWritesSnapshotSchema) {
  TempFile f("cli_metrics_json.tce", kSmallProgram);
  const std::string metrics =
      std::string(::testing::TempDir()) + "cli_metrics_out.json";
  CliResult r = run_cli(
      {"plan", f.path(), "--procs", "4", "--metrics", metrics});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  std::ifstream in(metrics);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(metrics.c_str());
  EXPECT_NE(doc.find("\"schema\":\"tce-metrics/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"plan.latency_s\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
}

TEST(Cli, NonzeroExitDumpsFlightRecorderTail) {
  // A lint-certified infeasible instance (exit 8): the stderr text must
  // carry the tce-log/1 tail including the certificate event.
  TempFile f("cli_fr_lint.tce", R"(
    index a, b, k = 8192
    S[a,b] = sum[k] A[a,k] * B[k,b]
  )");
  CliResult r = run_cli({"lint", f.path(), "--mem-limit", "100MB"});
  EXPECT_EQ(r.exit_code, kExitLint);
  EXPECT_NE(r.error.find("flight recorder"), std::string::npos);
  EXPECT_NE(r.error.find("\"schema\":\"tce-log/1\""), std::string::npos);
  EXPECT_NE(r.error.find("\"event\":\"mem.infeasible\""),
            std::string::npos);
  EXPECT_NE(r.error.find("\"event\":\"exit\""), std::string::npos);
}

TEST(Cli, InfeasiblePlanDumpsProverEvent) {
  TempFile f("cli_fr_plan.tce", kSmallProgram);
  CliResult r = run_cli(
      {"plan", f.path(), "--procs", "4", "--mem-limit", "1KB"});
  EXPECT_EQ(r.exit_code, kExitInfeasible);
  EXPECT_NE(r.error.find("flight recorder"), std::string::npos);
  EXPECT_NE(r.error.find("\"component\":\"optimizer\""),
            std::string::npos);
  EXPECT_NE(r.error.find("\"event\":\"prover.infeasible\""),
            std::string::npos);
}

TEST(Cli, SuccessfulRunDumpsNothing) {
  TempFile f("cli_fr_ok.tce", kSmallProgram);
  CliResult r = run_cli({"plan", f.path(), "--procs", "4"});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_EQ(r.error.find("flight recorder"), std::string::npos);
}

TEST(Cli, UsageErrorsAlsoCarryTheTail) {
  CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.exit_code, kExitUsage);
  EXPECT_NE(r.error.find("\"event\":\"exit\""), std::string::npos);
  EXPECT_NE(r.error.find("\"code\":1"), std::string::npos);
}

// ------------------------------------------------------------------ serve

TEST(Cli, ServeNeedsExactlyOneTransport) {
  CliResult none = run_cli({"serve"});
  EXPECT_EQ(none.exit_code, kExitUsage);
  EXPECT_NE(none.error.find("--socket PATH or --stdio"),
            std::string::npos);
  CliResult both = run_cli({"serve", "--stdio", "--socket", "/tmp/x.sock"});
  EXPECT_EQ(both.exit_code, kExitUsage);
}

TEST(Cli, ServeRejectsMalformedNumericOptions) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--cache-capacity", "garbage"},
      {"--threads", "garbage"},
      // 2^32 + 1 does not fit the thread count and must not wrap to 1.
      {"--threads", "4294967297"}};
  for (const auto& [flag, value] : cases) {
    CliResult r = run_cli({"serve", "--stdio", flag, value});
    EXPECT_EQ(r.exit_code, kExitUsage) << flag << " " << value;
    EXPECT_NE(r.error.find(value), std::string::npos) << flag;
  }
}

TEST(Cli, HelpDocumentsServe) {
  CliResult r = run_cli({"help"});
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("tcemin serve"), std::string::npos);
  EXPECT_NE(r.output.find("--verify-cache"), std::string::npos);
}

}  // namespace
}  // namespace tce
