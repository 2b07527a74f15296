#include "tce/cli/cli.hpp"

#include <cctype>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "tce/codegen/codegen.hpp"
#include "tce/common/assert.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/parse.hpp"
#include "tce/core/forest.hpp"
#include "tce/fuzz/harness.hpp"
#include "tce/fuzz/oracles.hpp"
#include "tce/lint/lint.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/simulate.hpp"
#include "tce/common/strings.hpp"
#include "tce/common/units.hpp"
#include "tce/common/timer.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/obs/exporters.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/opmin/opmin.hpp"
#include "tce/serve/server.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/verify/verifier.hpp"

namespace tce {

namespace {

constexpr const char* kUsage = R"(tcemin — memory-constrained communication minimization for tensor
contraction expressions (Cociorva et al., IPPS 2003)

usage:
  tcemin plan <program-file> [options]
      Optimize the contraction program for a parallel machine and print
      the per-array plan table, totals, and (optionally) pseudocode.
        --procs N            processors, a perfect square (default 16)
        --procs-per-node N   processors per node (default 2)
        --mem-limit SIZE     per-node limit, e.g. 4GB (default 0 =
                             unlimited; a size below one byte is a
                             usage error)
        --threads N          planner worker threads; 0 = all hardware
                             threads (default), 1 = sequential.  The
                             plan is identical at every setting.
        --machine FILE       characterization file for the target machine,
                             for the same --procs and --procs-per-node
                             (default: measure the bundled simulated
                             itanium-2003 cluster)
        --no-fusion          disallow loop fusion
        --no-redistribution  disallow redistribution between steps
        --replication        also consider the replicate-compute-reduce
                             template (extension; see README)
        --liveness           liveness-aware memory accounting (extension)
        --pseudocode         also print the generated program
        --json               print the plan as JSON instead of tables
        --stats              also print search statistics (candidates,
                             pruned, kept, per-node effort) and the
                             metrics registry (docs/OBSERVABILITY.md)
        --trace FILE         write a Chrome/Perfetto trace-event JSON
                             timeline of the run (DP node spans, simnet
                             phases and flows); open at
                             https://ui.perfetto.dev
                             (env: TCE_TRACE=FILE does the same)
        --metrics FILE       write the metrics registry when the command
                             finishes: Prometheus text exposition, or
                             the "tce-metrics/1" JSON snapshot when
                             FILE ends in .json (docs/FORMATS.md).
                             (env: TCE_METRICS=FILE does the same for
                             every subcommand)
        --verify             round-trip each plan through the JSON codec
                             and re-check every invariant with the
                             independent verifier; fails (exit 1) with
                             one "error node=... rule=...: ..." line per
                             violation (see docs/VERIFIER.md)
        --opmin              binarize multi-factor statements first

  tcemin lint <program-file> [options]
      Statically analyze a contraction program without running the
      search: structural rules (indices, arities, tree shape), model
      interactions (grid tiling, characterization-curve coverage) and a
      memory-infeasibility prover that can certify "no plan fits the
      limit" with a machine-readable certificate (docs/LINT.md).  Every
      independent finding is reported, tagged with a stable rule id, in
      a deterministic order.  Exits 8 when error-severity findings
      exist, 0 otherwise (warnings and infos alone do not fail).
        --procs N            processors, a perfect square (default 16)
        --procs-per-node N   processors per node (default 2)
        --mem-limit SIZE     per-node limit for the infeasibility prover
                             (default 0 = unlimited, prover off)
        --machine FILE       characterization file, as in plan (default:
                             measure the bundled simulated itanium-2003
                             cluster)
        --no-fusion          analyze without loop fusion
        --liveness           liveness-aware memory accounting (extension)
        --comm-bounds        also run the communication lower-bound
                             prover: per-node certified bound table
                             (rule comm.lb-certificate, info) and a
                             warning when the memory limit, not the
                             template geometry, dominates the bound
                             (rule comm.limit-dominated)
        --replication        assume the replicate-compute-reduce
                             template is available (shrinks the
                             communication bound)
        --json               machine-readable diagnostics ("tce-lint/1",
                             docs/FORMATS.md) instead of text; exit
                             codes are unchanged

  tcemin opmin <program-file>
      Operation-minimize every multi-factor statement and print the
      binarized sequence with naive/optimal operation counts.

  tcemin validate <program-file> [options]
      Optimize (single-tree programs) and compare the predicted
      communication cost against a brute-force flow simulation of the
      plan on the simulated cluster, which it measures itself (no
      --machine).  Takes plan's --procs, --procs-per-node, --mem-limit,
      --threads, --no-fusion, --no-redistribution, --replication,
      --liveness and --opmin, and
        --trace FILE         record the simulated flows as a timeline

  tcemin characterize [options]
      Measure the bundled simulated itanium-2003 cluster and print its
      characterization file: the table plan measures without --machine.
        --procs N            processors (default 16)
        --procs-per-node N   processors per node (default 2)

  tcemin serve [options]
      Run the planner as a long-lived service (docs/SERVING.md):
      tce-serve/1 requests in (problem JSON), plan JSON +
      OptimizerStats out, with repeats answered from an LRU plan cache
      keyed by a renaming-invariant canonical hash of (tree shape,
      extents, grid, model, memory limit).  Cache hits are
      byte-identical to fresh searches.  Certified-infeasible requests
      are rejected by the planner's memory prover before any search,
      with the rule id and certificate in the reply.  An HTTP
      `GET /metrics` on the same socket answers a Prometheus scrape of
      the metrics registry.
        --socket PATH        listen on a Unix-domain socket at PATH
        --stdio              serve stdin/stdout instead (tests, pipes)
        --cache-capacity N   LRU plan-cache entries (default 256;
                             0 disables caching)
        --threads N          planner worker threads per search, as in
                             plan (default 0 = all hardware threads)
        --verify-cache       debug mode: re-run the search on every
                             cache hit and fail the request if the
                             cached bytes differ from the fresh ones
        --metrics FILE       write the metrics registry when the
                             daemon exits, as in plan

  tcemin fuzz [options]
      Differentially fuzz the planner: generate random contraction
      programs, machines and memory limits, then cross-check the DP
      optimizer against independent oracles (docs/FUZZING.md).
        --seed N             base seed (default 1); instance i uses
                             seed N+i, so a failure at seed S reproduces
                             alone with --seed S --runs 1
        --runs N             number of random instances (default 100)
        --max-nodes N        max contraction/reduction nodes per tree
                             (default 3); the brute oracle skips an
                             instance once a node passes 200,000
                             solutions
        --oracle NAME        all (default), brute, threads, verify,
                             simnet, exec, lint, or commlb
        --no-shrink          report failures without minimizing them

  tcemin help
      Show this text.

exit codes:
    0  success
    1  usage error (unknown command/flag, malformed option value)
    2  no plan fits the memory limit
    3  I/O error (file could not be opened, read or written)
    4  input error (program/machine file failed to parse or is invalid)
    5  plan verification failed (--verify)
    6  fuzzing found an oracle disagreement
    7  internal error
    8  lint found error-severity diagnostics (tcemin lint)

environment:
    TCE_TRACE=FILE      capture a trace-event timeline for any subcommand
    TCE_METRICS=FILE    capture the metrics registry for any subcommand
    TCE_LOG=FILE        append structured tce-log/1 event lines;
                        TCE_LOG_LEVEL=debug|info|warn|error filters
                        the file (default info)
    TCE_KERNEL=NAME     local GEMM kernel (auto | ref | tiled) for any
                        numeric execution (docs/KERNELS.md)

Every run buffers its structured events in an in-memory flight
recorder; on any nonzero exit the buffered tail is dumped to stderr
after the error message (docs/OBSERVABILITY.md).

Program files use the DSL:
    index a, b = 480
    index i = 32
    T[a,b] = sum[i] X[a,i] * Y[i,b]
)";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal flag cursor over argv-style arguments.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  bool take_flag(const std::string& name) {
    for (auto it = args_.begin(); it != args_.end(); ++it) {
      if (*it == name) {
        args_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::string take_option(const std::string& name,
                          const std::string& fallback) {
    for (auto it = args_.begin(); it != args_.end(); ++it) {
      if (*it == name) {
        auto val = it + 1;
        if (val == args_.end()) {
          throw UsageError("option " + name + " needs a value");
        }
        std::string v = *val;
        args_.erase(it, val + 1);
        return v;
      }
    }
    return fallback;
  }

  /// Takes the next positional argument.
  std::string take_positional(const std::string& what) {
    for (auto it = args_.begin(); it != args_.end(); ++it) {
      if (!it->starts_with("--")) {
        std::string v = *it;
        args_.erase(it);
        return v;
      }
    }
    throw UsageError("missing " + what);
  }

  void expect_empty() const {
    if (!args_.empty()) {
      throw UsageError("unexpected argument '" + args_.front() + "'");
    }
  }

  /// Takes an option that must parse as an unsigned integer that \p T
  /// holds (checked: all digits, no overflow — see
  /// tce/common/parse.hpp — and at most T's largest value).
  template <typename T>
  T take_uint(const std::string& name, const std::string& fallback) {
    constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
    const std::string text = take_option(name, fallback);
    const std::optional<std::uint64_t> v = parse_u64(text);
    if (!v.has_value()) {
      throw UsageError("option " + name + " needs a number, got '" +
                       text + "'");
    }
    if (*v > kMax) {
      throw UsageError("option " + name + " needs a number at most " +
                       std::to_string(kMax) + ", got '" + text + "'");
    }
    return static_cast<T>(*v);
  }

  /// Takes a byte-size option (e.g. "4GB"); empty fallback -> 0.
  std::uint64_t take_size(const std::string& name,
                          const std::string& fallback) {
    const std::string text = take_option(name, fallback);
    if (text.empty()) return 0;
    try {
      return parse_byte_size(text);
    } catch (const Error& e) {
      throw UsageError("option " + name + ": " + e.what());
    }
  }

 private:
  std::vector<std::string> args_;
};

/// Takes --procs and --procs-per-node; values that form no grid are a
/// usage error.
ProcGrid take_grid(Args& args) {
  const auto procs = args.take_uint<std::uint32_t>("--procs", "16");
  const auto per_node =
      args.take_uint<std::uint32_t>("--procs-per-node", "2");
  const std::string why = ProcGrid::shape_error(procs, per_node);
  if (!why.empty()) throw UsageError("--procs/--procs-per-node: " + why);
  return ProcGrid::make(procs, per_node);
}

/// The memory limit and model switches plan, validate and lint share
/// (see the usage text).
OptimizerConfig take_model_options(Args& args) {
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = args.take_size("--mem-limit", "");
  cfg.enable_fusion = !args.take_flag("--no-fusion");
  cfg.enable_replication_template = args.take_flag("--replication");
  cfg.liveness_aware = args.take_flag("--liveness");
  return cfg;
}

/// The planner options plan and validate share (see the usage text).
struct PlannerOptions {
  ProcGrid grid;
  OptimizerConfig cfg;
  bool opmin = false;
};

PlannerOptions take_planner_options(Args& args) {
  PlannerOptions o;
  o.grid = take_grid(args);
  o.cfg = take_model_options(args);
  o.cfg.threads = args.take_uint<unsigned>("--threads", "0");
  o.cfg.enable_redistribution = !args.take_flag("--no-redistribution");
  o.opmin = args.take_flag("--opmin");
  return o;
}

/// The model for \p grid: --machine FILE's table (which must be for
/// \p grid), or the bundled cluster's without one.
CharacterizedModel load_or_measure(Args& args, const ProcGrid& grid) {
  const std::string machine = args.take_option("--machine", "");
  std::string text;
  if (!machine.empty()) {
    text = read_file(machine);
    // An empty text would select the bundled cluster.
    if (text.empty()) throw Error("machine file '" + machine + "' is empty");
  }
  return CharacterizedModel(characterization_for(text, grid));
}

/// `--trace FILE`: starts the trace emitter for the command's scope and
/// writes the file when the command finishes (including on error).
/// Does not interfere with a TCE_TRACE env capture already running.
class TraceGuard {
 public:
  explicit TraceGuard(const std::string& path) : started_(!path.empty()) {
    if (started_) obs::trace_start(path);
  }
  ~TraceGuard() {
    if (started_) obs::trace_stop();
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  bool started_;
};

/// `--metrics FILE`: enables the metrics registry for the command's
/// scope and writes the exposition file when the command finishes
/// (including on error, so infeasible runs still leave their numbers).
/// Format follows the extension — see obs::write_metrics_file.
class MetricsGuard {
 public:
  explicit MetricsGuard(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    obs::metrics_reset();
    obs::metrics_enable(true);
  }
  ~MetricsGuard() {
    if (path_.empty()) return;
    std::string err;
    if (!obs::write_metrics_file(path_, &err)) {
      obs::log_event(obs::LogLevel::kError, "cli", "metrics.write_failed",
                     json::ObjectWriter().field("error", err).str());
    }
  }
  MetricsGuard(const MetricsGuard&) = delete;
  MetricsGuard& operator=(const MetricsGuard&) = delete;

 private:
  std::string path_;
};

/// `--verify`: exports \p plan to JSON, reads it back, and re-derives
/// every invariant.  The round trip is deliberate — it checks the codec
/// is lossless for every verifier-checked field, not just the in-memory
/// plan.  Throws with the full diagnostic listing on any violation.
void verify_or_throw(const ContractionTree& tree, const MachineModel& model,
                     const OptimizedPlan& plan,
                     std::uint64_t mem_limit_node_bytes) {
  const OptimizedPlan reread =
      plan_from_json(plan_to_json(plan, tree.space()), tree);
  VerifyOptions opts;
  opts.mem_limit_node_bytes = mem_limit_node_bytes;
  const VerifyReport report = verify_plan(tree, model, reread, opts);
  if (!report.ok()) {
    throw VerifyFailedError("plan verification failed\n" +
                            report.str(tree));
  }
}

/// Renders lint diagnostics in the verifier's one-line style.
std::string render_diagnostics(const std::vector<lint::Diagnostic>& diags) {
  std::string out;
  for (const lint::Diagnostic& d : diags) {
    switch (d.severity) {
      case lint::Severity::kError: out += "  error"; break;
      case lint::Severity::kWarning: out += "  warning"; break;
      case lint::Severity::kInfo: out += "  info"; break;
    }
    if (!d.node.empty()) out += " node=" + d.node;
    out += " rule=" + d.rule + ": " + d.message + "\n";
  }
  return out;
}

/// Converts a first-error-wins validation failure into the batched lint
/// listing when the linter pins down two or more independent structural
/// errors; rethrows the original exception otherwise.  Must be called
/// from inside a catch handler.
[[noreturn]] void rethrow_batched(const ParsedProgram& program) {
  const std::vector<lint::Diagnostic> errs =
      lint::structural_errors(program);
  if (errs.size() < 2) throw;
  throw Error("program has " + std::to_string(errs.size()) +
              " structural errors:\n" + render_diagnostics(errs));
}

/// Builds the program's contraction trees; \p allow_forest admits
/// several outputs.  Under --opmin, multi-factor statements are
/// binarized first, and binarize_program admits one output only.  On a
/// validation failure, re-diagnoses with the batched linter so every
/// independent structural error is reported, not just the first.
ContractionForest build_forest(const ParsedProgram& program, bool opmin,
                               bool allow_forest) {
  try {
    return ContractionForest::from_sequence(
        opmin ? binarize_program(program)
              : to_formula_sequence(program, allow_forest));
  } catch (const Error&) {
    rethrow_batched(program);
  }
}

/// Renders a LintReport as the stable "tce-lint/1" JSON document
/// (docs/FORMATS.md): every diagnostic with its rule id, plus both
/// machine-readable certificate families.
std::string lint_report_json(const lint::LintReport& report) {
  json::ArrayWriter diags;
  for (const lint::Diagnostic& d : report.diagnostics) {
    const char* sev = d.severity == lint::Severity::kError     ? "error"
                      : d.severity == lint::Severity::kWarning ? "warning"
                                                               : "info";
    diags.element(json::ObjectWriter()
                      .field("severity", sev)
                      .field("node", d.node)
                      .field("rule", d.rule)
                      .field("message", d.message)
                      .str());
  }
  json::ObjectWriter out;
  out.field("schema", "tce-lint/1")
      .field("ok", report.ok())
      .field("rules_checked", report.rules_checked)
      .raw("diagnostics", diags.str());
  if (report.certificate.has_value()) {
    const lint::InfeasibilityCertificate& c = *report.certificate;
    out.raw("mem_certificate",
            json::ObjectWriter()
                .field("rule", "mem.infeasible")
                .field("node", c.node)
                .field("lower_bound_node_bytes", c.lower_bound_node_bytes)
                .field("mem_limit_node_bytes", c.mem_limit_node_bytes)
                .str());
  }
  if (!report.comm_certificates.empty()) {
    json::ArrayWriter certs;
    for (const lint::CommBoundResult& cb : report.comm_certificates) {
      json::ArrayWriter nodes;
      for (const lint::NodeCommBound& nb : cb.nodes) {
        nodes.element(json::ObjectWriter()
                          .field("node", nb.node)
                          .field("lb_words", nb.lb_words)
                          .field("lb_struct_words", nb.lb_struct_words)
                          .field("lb_mem_words", nb.lb_mem_words)
                          .field("limit_dominated", nb.limit_dominated)
                          .str());
      }
      certs.element(json::ObjectWriter()
                        .field("rule", "comm.lb-certificate")
                        .field("root", cb.root)
                        .field("comm_lb_words", cb.root_lb_words)
                        .raw("nodes", nodes.str())
                        .str());
    }
    out.raw("comm_certificates", certs.str());
  }
  return out.str() + "\n";
}

std::string cmd_lint(Args args) {
  const ProcGrid grid = take_grid(args);
  lint::LintConfig cfg = lint_config_of(take_model_options(args));
  cfg.comm_bounds = args.take_flag("--comm-bounds");
  const bool json_out = args.take_flag("--json");
  CharacterizedModel model = load_or_measure(args, grid);
  // Positionals are taken only after every option is consumed, so an
  // option value ("--metrics out.prom file.tce") is never mistaken for
  // the program file.
  const std::string path = args.take_positional("program file");
  args.expect_empty();

  const ParsedProgram program = parse_program(read_file(path));
  const lint::LintReport report =
      lint::lint_program(program, grid, &model.table(), cfg);
  const std::string rendered =
      json_out ? lint_report_json(report) : report.str();
  if (!report.ok()) throw LintFindingsError(rendered);
  return rendered;
}

std::string cmd_plan(Args args) {
  const PlannerOptions opts = take_planner_options(args);
  const OptimizerConfig& cfg = opts.cfg;
  const bool pseudocode = args.take_flag("--pseudocode");
  const bool json = args.take_flag("--json");
  const bool verify = args.take_flag("--verify");
  const bool stats = args.take_flag("--stats");
  const TraceGuard trace(args.take_option("--trace", ""));
  const MetricsGuard metrics(args.take_option("--metrics", ""));
  if (stats && !obs::metrics_enabled()) {
    obs::metrics_reset();
    obs::metrics_enable(true);
  }
  CharacterizedModel model = load_or_measure(args, opts.grid);
  const std::string path = args.take_positional("program file");
  args.expect_empty();

  const std::string text = read_file(path);
  const ParsedProgram program = parse_program(text);

  // A multi-output program is planned jointly as a forest.
  const ContractionForest forest =
      build_forest(program, opts.opmin, /*allow_forest=*/true);
  if (forest.trees.size() == 1) {
    const ContractionTree& tree = forest.trees[0];
    const Stopwatch plan_sw;
    OptimizedPlan plan = optimize(tree, model, cfg);
    obs::observe("plan.latency_s", plan_sw.elapsed_s());
    if (verify) {
      verify_or_throw(tree, model, plan, cfg.mem_limit_node_bytes);
    }
    if (json) return plan_to_json(plan, tree.space()) + "\n";
    std::string out = plan.table(tree.space()) + "\n" +
                      plan.summary(tree.space());
    if (stats) {
      out += "\n" + plan.stats.str();
      out += "metrics:\n" + obs::metrics_table();
    }
    if (pseudocode) {
      out += "\n" + generate_pseudocode(tree, plan, model.grid().edge);
    }
    return out;
  }

  const Stopwatch plan_sw;
  ForestPlan fp = optimize_forest(forest, model, cfg);
  obs::observe("plan.latency_s", plan_sw.elapsed_s());
  if (verify) {
    // Forest planning splits the node limit across trees, so each tree
    // is checked against the invariants alone (limit rechecked jointly
    // by the forest optimizer itself).
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      verify_or_throw(forest.trees[t], model, fp.plans[t],
                      /*mem_limit_node_bytes=*/0);
    }
  }
  if (json) {
    std::string out = "[";
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      if (t != 0) out += ",";
      out += plan_to_json(fp.plans[t], forest.trees[t].space());
    }
    out += "]\n";
    return out;
  }
  std::string out;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    const ContractionTree& tree = forest.trees[t];
    out += "output " + tree.node(tree.root()).tensor.name + ":\n";
    out += fp.plans[t].table(tree.space()) + "\n";
    if (pseudocode) {
      out += generate_pseudocode(tree, fp.plans[t], model.grid().edge) +
             "\n";
    }
  }
  out += "total communication: " + fixed(fp.total_comm_s, 1) + " s\n";
  out += "total runtime:       " + fixed(fp.total_runtime_s(), 1) +
         " s (" + fixed(100.0 * fp.comm_fraction(), 1) +
         "% communication)\n";
  out += "memory per node:     " + format_bytes_paper(fp.bytes_per_node) +
         "\n";
  if (stats) {
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      out += "\noutput " +
             forest.trees[t].node(forest.trees[t].root()).tensor.name +
             " " + fp.plans[t].stats.str();
    }
    out += "metrics:\n" + obs::metrics_table();
  }
  return out;
}

std::string cmd_opmin(Args args) {
  const std::string path = args.take_positional("program file");
  args.expect_empty();
  ParsedProgram program = parse_program(read_file(path));

  std::string out;
  for (const auto& stmt : program.statements) {
    if (stmt.factors.size() < 3) continue;
    OpMinResult r = minimize_operations(OpMinInput::from_statement(stmt),
                                        program.space);
    out += "statement producing " + stmt.result.name + ":\n";
    out += "  naive:   " + std::to_string(r.naive_flops) + " flops\n";
    out += "  optimal: " + std::to_string(r.flops) + " flops\n";
    out += r.sequence.str();
  }
  if (out.empty()) {
    out = "no multi-factor statements; nothing to binarize\n";
  } else {
    FormulaSequence seq = binarize_program(program);
    out += "full binarized program:\n" + seq.str();
  }
  return out;
}

std::string cmd_validate(Args args) {
  const PlannerOptions opts = take_planner_options(args);
  const TraceGuard trace(args.take_option("--trace", ""));
  const std::string path = args.take_positional("program file");
  args.expect_empty();

  const ProcGrid& grid = opts.grid;
  Network net(ClusterSpec::itanium2003(grid.nodes(), grid.procs_per_node));
  CharacterizedModel model(characterize(net, grid));

  const ContractionForest forest =
      build_forest(parse_program(read_file(path)), opts.opmin,
                   /*allow_forest=*/false);
  const ContractionTree& tree = forest.trees.front();
  OptimizedPlan plan = optimize(tree, model, opts.cfg);

  std::string out;
  double pred_total = 0, sim_total = 0;
  for (const PlanStep& step : plan.steps) {
    const double pred =
        step.rot_left_s + step.rot_right_s + step.rot_result_s;
    const ContractionNode& n = tree.node(step.node);
    const double sim =
        simulate_step(net, grid, tree.space(), n, step,
                      tree.node(n.left).tensor, tree.node(n.right).tensor)
            .comm_s;
    pred_total += pred;
    sim_total += sim;
    out += step.result_name + ": predicted " + fixed(pred, 2) +
           " s, simulated " + fixed(sim, 2) + " s\n";
  }
  const double err =
      sim_total > 0 ? 100.0 * (pred_total - sim_total) / sim_total : 0.0;
  // An error that rounds to zero prints unsigned, never as "-0.0".
  std::string err_text = fixed(err, 1);
  if (err_text == "-0.0") err_text = "0.0";
  out += "TOTAL: predicted " + fixed(pred_total, 2) + " s, simulated " +
         fixed(sim_total, 2) + " s (" + err_text + "% error)\n";
  return out;
}

std::string cmd_characterize(Args args) {
  const ProcGrid grid = take_grid(args);
  args.expect_empty();
  return characterize_itanium(grid.procs, grid.procs_per_node).save_string();
}

std::string cmd_serve(Args args) {
  const std::string socket_path = args.take_option("--socket", "");
  const bool stdio = args.take_flag("--stdio");
  const auto capacity =
      args.take_uint<std::size_t>("--cache-capacity", "256");
  const auto threads = args.take_uint<unsigned>("--threads", "0");
  const bool verify_cache = args.take_flag("--verify-cache");
  const TraceGuard trace(args.take_option("--trace", ""));
  const MetricsGuard metrics(args.take_option("--metrics", ""));
  args.expect_empty();
  if (stdio == !socket_path.empty()) {
    throw UsageError("serve needs exactly one of --socket PATH or --stdio");
  }

  // The daemon always records metrics: they are a served surface
  // (GET /metrics, the "metrics" op), not just an exit artifact.
  if (!obs::metrics_enabled()) {
    obs::metrics_reset();
    obs::metrics_enable(true);
  }
  serve::ServeOptions opts;
  opts.cache_capacity = capacity;
  opts.threads = threads;
  opts.verify_cache = verify_cache;
  serve::Server server(opts);
  obs::log_event(obs::LogLevel::kInfo, "serve", "start",
                 json::ObjectWriter()
                     .field("cache_capacity", capacity)
                     .field("verify_cache", verify_cache)
                     .field("transport", stdio ? "stdio" : "unix")
                     .str());
  if (stdio) {
    serve::serve_loop(server, std::cin, std::cout);
  } else {
    serve::serve_unix_socket(server, socket_path);
  }
  return "";
}

std::string cmd_fuzz(Args args) {
  fuzz::FuzzOptions opts;
  opts.seed = args.take_uint<std::uint64_t>("--seed", "1");
  opts.runs = args.take_uint<int>("--runs", "100");
  opts.max_nodes = args.take_uint<int>("--max-nodes", "3");
  opts.oracle = args.take_option("--oracle", "all");
  opts.shrink = !args.take_flag("--no-shrink");
  args.expect_empty();
  if (!fuzz::oracle_name_ok(opts.oracle)) {
    std::string names = "all";
    for (const fuzz::Oracle& o : fuzz::oracles()) names += ", " + o.name;
    throw UsageError("unknown oracle '" + opts.oracle + "'; expected " +
                     names);
  }
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts);
  if (!report.failures.empty()) {
    throw fuzz::FuzzDisagreement(report.str());
  }
  return report.str();
}

/// The one shutdown path every CLI exit routes through: logs the
/// terminal event (so the flight recorder is never empty), appends the
/// recorded tail to the stderr text on any nonzero exit, and disarms
/// the recorder.  Early returns and every catch arm in run_cli reach
/// the caller only through here.
CliResult finish_cli(CliResult result) {
  const bool failed = result.exit_code != kExitOk;
  obs::log_event(
      failed ? obs::LogLevel::kError : obs::LogLevel::kInfo, "cli", "exit",
      json::ObjectWriter().field("code", result.exit_code).str());
  if (failed) {
    const std::string tail = obs::flight_recorder_dump();
    if (!tail.empty()) {
      result.error += "flight recorder (tce-log/1, oldest first):\n" + tail;
    }
  }
  obs::flight_recorder_enable(false);
  return result;
}

}  // namespace

std::uint64_t parse_byte_size(const std::string& text) {
  // The number: at least one digit and at most one dot.
  std::size_t i = 0;
  std::size_t digits = 0;
  std::size_t dots = 0;
  for (; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++digits;
    } else if (text[i] == '.') {
      ++dots;
    } else {
      break;
    }
  }
  if (digits == 0 || dots > 1) throw Error("bad size '" + text + "'");
  double value = 0;
  try {
    value = std::stod(text.substr(0, i));
  } catch (const std::out_of_range&) {
    throw Error("size '" + text + "' is out of range");
  }
  std::string suffix(trim(text.substr(i)));
  for (auto& c : suffix) c = static_cast<char>(std::toupper(c));
  double scale = 1;
  if (suffix == "KB") {
    scale = 1e3;
  } else if (suffix == "MB") {
    scale = 1e6;
  } else if (suffix == "GB") {
    scale = 1e9;
  } else if (suffix == "TB") {
    scale = 1e12;
  } else if (!suffix.empty() && suffix != "B") {
    throw Error("bad size suffix '" + suffix + "'");
  }
  if (value < 0) throw Error("negative size");
  // Guard the double->uint64 cast: above ~1.8e19 the conversion is UB.
  if (value * scale >= 18.4e18) {
    throw Error("size '" + text + "' is out of range");
  }
  // 0 means unlimited, so a size that would truncate to it is refused.
  if (value > 0 && value * scale < 1) {
    throw Error("size '" + text + "' is below one byte");
  }
  return static_cast<std::uint64_t>(value * scale);
}

CliResult run_cli(const std::vector<std::string>& args) {
  obs::flight_recorder_clear();
  obs::flight_recorder_enable(true);
  CliResult result;
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      result.output = kUsage;
      return finish_cli(std::move(result));
    }
    const std::string cmd = args[0];
    // Validate TCE_KERNEL up front so a malformed kernel name fails
    // loudly on every subcommand, not only on the ones that happen to
    // execute a kernel.
    kernel_config();
    Args rest(std::vector<std::string>(args.begin() + 1, args.end()));
    if (cmd == "plan") {
      result.output = cmd_plan(std::move(rest));
    } else if (cmd == "lint") {
      result.output = cmd_lint(std::move(rest));
    } else if (cmd == "opmin") {
      result.output = cmd_opmin(std::move(rest));
    } else if (cmd == "validate") {
      result.output = cmd_validate(std::move(rest));
    } else if (cmd == "characterize") {
      result.output = cmd_characterize(std::move(rest));
    } else if (cmd == "fuzz") {
      result.output = cmd_fuzz(std::move(rest));
    } else if (cmd == "serve") {
      result.output = cmd_serve(std::move(rest));
    } else {
      throw UsageError("unknown command '" + cmd + "'; try 'tcemin help'");
    }
  } catch (const InfeasibleError& e) {
    result.exit_code = kExitInfeasible;
    result.error = std::string("infeasible: ") + e.what() + "\n";
  } catch (const UsageError& e) {
    result.exit_code = kExitUsage;
    result.error = std::string("error: ") + e.what() + "\n";
  } catch (const KernelUsageError& e) {
    // A malformed TCE_KERNEL is a usage error, even though the tensor
    // layer cannot name UsageError.
    result.exit_code = kExitUsage;
    result.error = std::string("error: ") + e.what() + "\n";
  } catch (const IoError& e) {
    result.exit_code = kExitIo;
    result.error = std::string("error: ") + e.what() + "\n";
  } catch (const VerifyFailedError& e) {
    result.exit_code = kExitVerify;
    result.error = std::string("error: ") + e.what() + "\n";
  } catch (const LintFindingsError& e) {
    // The report (diagnostics + summary) is the command's output; the
    // exit code alone signals the failure.
    result.exit_code = kExitLint;
    result.output = e.what();
  } catch (const fuzz::FuzzDisagreement& e) {
    result.exit_code = kExitFuzz;
    result.error = std::string("fuzz: ") + e.what() + "\n";
  } catch (const Error& e) {
    result.exit_code = kExitInput;
    result.error = std::string("error: ") + e.what() + "\n";
  } catch (const ContractViolation& e) {
    result.exit_code = kExitInternal;
    result.error = std::string("internal error: ") + e.what() + "\n";
  } catch (const std::exception& e) {
    result.exit_code = kExitInternal;
    result.error = std::string("internal error: ") + e.what() + "\n";
  }
  return finish_cli(std::move(result));
}

}  // namespace tce
