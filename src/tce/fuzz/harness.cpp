#include "tce/fuzz/harness.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "tce/common/assert.hpp"
#include "tce/common/json.hpp"
#include "tce/common/timer.hpp"

#include "tce/costmodel/characterization.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/fuzz/oracles.hpp"
#include "tce/fuzz/shrink.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/simnet/network.hpp"
#include "tce/simnet/spec.hpp"

namespace tce::fuzz {

namespace {

const std::vector<std::string>& all_oracles() {
  static const std::vector<std::string> names = {
      "brute", "threads", "verify", "simnet", "exec", "lint", "commlb"};
  return names;
}

/// Per-(procs, procs_per_node) characterization tables: characterizing
/// the simulated cluster is by far the most expensive part of a fuzz
/// run, and every instance on the same grid shares the measurement.
using TableCache =
    std::map<std::pair<std::uint32_t, std::uint32_t>, CharacterizationTable>;

/// Everything the oracles need, with owned lifetimes.
struct Built {
  ContractionTree tree;
  std::unique_ptr<Network> net;
  std::unique_ptr<MachineModel> model;

  OracleInput input(const FuzzInstance& inst) const {
    return {&inst, &tree, model.get(), net.get()};
  }
};

Built build(const FuzzInstance& inst, TableCache& tables) {
  Built b{build_tree(inst), nullptr, nullptr};
  b.net = std::make_unique<Network>(ClusterSpec::itanium2003(
      inst.procs / inst.procs_per_node, inst.procs_per_node));
  if (inst.characterized) {
    const auto key = std::make_pair(inst.procs, inst.procs_per_node);
    auto it = tables.find(key);
    if (it == tables.end()) {
      const ProcGrid grid =
          ProcGrid::make(inst.procs, inst.procs_per_node);
      it = tables.emplace(key, characterize(*b.net, grid)).first;
    }
    b.model = std::make_unique<CharacterizedModel>(it->second);
  } else {
    b.model = std::make_unique<AnalyticModel>(analytic_model_of(inst));
  }
  return b;
}

/// Runs one oracle, converting unexpected exceptions into failures —
/// a crash on generated input is a finding, not a harness error.
/// Wall time per oracle call lands in a per-oracle histogram
/// ("fuzz.oracle.<name>.wall_s") so slow oracles show up in p99.
OracleOutcome run_guarded(const std::string& name, const Built& b,
                          const FuzzInstance& inst) {
  const Stopwatch sw;
  OracleOutcome out;
  try {
    out = run_oracle(name, b.input(inst));
  } catch (const std::exception& e) {
    out = {OracleStatus::kFail,
           std::string("unexpected exception: ") + e.what()};
  }
  if (obs::metrics_enabled()) {
    obs::observe("fuzz.oracle." + name + ".wall_s", sw.elapsed_s());
  }
  return out;
}

}  // namespace

std::string FuzzReport::str() const {
  std::string out = "fuzz: base seed " + std::to_string(base_seed) + ", " +
                    std::to_string(runs) + " runs\n";
  for (const auto& [name, ran] : executed) {
    const auto sk = skipped.find(name);
    out += "  " + name + ": " + std::to_string(ran) + " checked, " +
           std::to_string(sk == skipped.end() ? 0 : sk->second) +
           " skipped\n";
  }
  for (const auto& [reason, n] : skip_reasons) {
    out += "    skip " + std::to_string(n) + "x " + reason + "\n";
  }
  out += std::to_string(failures.size()) + " disagreement" +
         (failures.size() == 1 ? "" : "s") + "\n";
  for (const FuzzFailure& f : failures) {
    out += "\nFAIL seed=" + std::to_string(f.seed) + " oracle=" +
           f.oracle + "\n  " + f.config + "\n";
    for (std::size_t start = 0; start < f.program.size();) {
      const std::size_t nl = f.program.find('\n', start);
      const std::size_t end =
          nl == std::string::npos ? f.program.size() : nl;
      out += "  | " + f.program.substr(start, end - start) + "\n";
      start = end + 1;
    }
    out += "  " + f.detail + "\n";
  }
  return out;
}

bool oracle_name_ok(const std::string& name) {
  if (name == "all") return true;
  for (const std::string& n : all_oracles()) {
    if (n == name) return true;
  }
  return false;
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  TCE_EXPECTS(oracle_name_ok(opts.oracle));
  FuzzReport report;
  report.base_seed = opts.seed;
  report.runs = opts.runs;

  std::vector<std::string> oracles;
  if (opts.oracle == "all") {
    oracles = all_oracles();
  } else {
    oracles = {opts.oracle};
  }

  // Pre-register every selected oracle so an always-skipped oracle still
  // shows up in the report (str() iterates `executed`): a silently
  // absent row would hide a 100% skip rate.
  for (const std::string& name : oracles) {
    report.executed[name];
    report.skipped[name];
  }

  TableCache tables;
  for (int i = 0; i < opts.runs; ++i) {
    const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(i);
    GenOptions gen;
    gen.max_nodes = opts.max_nodes;
    // The executor needs full triplets and divisible extents; alternate
    // so every oracle sees instances in its domain.
    gen.exec_friendly =
        opts.oracle == "exec" || (opts.oracle == "all" && seed % 2 == 0);

    std::optional<FuzzInstance> inst_opt;
    std::optional<Built> built;
    try {
      inst_opt = generate_instance(seed, gen);
      built.emplace(build(*inst_opt, tables));
    } catch (const std::exception& e) {
      report.failures.push_back(
          {seed, "generate",
           std::string("instance generation failed: ") + e.what(),
           inst_opt ? inst_opt->describe() : std::string("(not generated)"),
           inst_opt ? inst_opt->program() : std::string()});
      if (obs::log_enabled(obs::LogLevel::kError)) {
        obs::log_event(obs::LogLevel::kError, "fuzz", "generate.failed",
                       json::ObjectWriter().field("seed", seed).str());
      }
      continue;
    }
    const FuzzInstance& inst = *inst_opt;

    for (const std::string& name : oracles) {
      OracleOutcome out = run_guarded(name, *built, inst);
      if (out.status == OracleStatus::kSkip) {
        ++report.skipped[name];
        ++report.skip_reasons[name + ": " + out.detail];
        continue;
      }
      ++report.executed[name];
      if (out.status == OracleStatus::kPass) continue;

      FuzzInstance culprit = inst;
      std::string detail = out.detail;
      if (opts.shrink) {
        culprit = shrink_instance(
            std::move(culprit), [&](const FuzzInstance& cand) {
              const Built cb = build(cand, tables);
              const OracleOutcome o = run_guarded(name, cb, cand);
              if (o.status == OracleStatus::kFail) {
                detail = o.detail;
                return true;
              }
              return false;
            });
      }
      report.failures.push_back({seed, name, detail, culprit.describe(),
                                 culprit.program()});
      if (obs::log_enabled(obs::LogLevel::kError)) {
        obs::log_event(obs::LogLevel::kError, "fuzz", "oracle.disagreement",
                       json::ObjectWriter()
                           .field("seed", seed)
                           .field("oracle", name)
                           .str());
      }
    }
  }
  return report;
}

}  // namespace tce::fuzz
