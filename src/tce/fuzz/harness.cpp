#include "tce/fuzz/harness.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "tce/common/assert.hpp"
#include "tce/common/json.hpp"
#include "tce/common/timer.hpp"

#include "tce/fuzz/oracles.hpp"
#include "tce/fuzz/shrink.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"

namespace tce::fuzz {

namespace {

/// Runs one oracle, converting unexpected exceptions into failures —
/// a crash on generated input is a finding, not a harness error.
/// Wall time per oracle call lands in a per-oracle histogram
/// ("fuzz.oracle.<name>.wall_s") so slow oracles show up in p99.
OracleOutcome run_guarded(const Oracle& oracle, OracleContext& ctx) {
  const Stopwatch sw;
  OracleOutcome out;
  try {
    out = oracle.run(ctx);
  } catch (const std::exception& e) {
    out = {OracleStatus::kFail,
           std::string("unexpected exception: ") + e.what()};
  }
  if (obs::metrics_enabled()) {
    obs::observe("fuzz.oracle." + oracle.name + ".wall_s", sw.elapsed_s());
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
  return name == "all" ||
         std::any_of(oracles().begin(), oracles().end(),
                     [&](const Oracle& o) { return o.name == name; });
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  TCE_EXPECTS(oracle_name_ok(opts.oracle));
  FuzzReport report;
  report.base_seed = opts.seed;
  report.runs = opts.runs;

  std::vector<Oracle> selected;
  for (const Oracle& o : oracles()) {
    if (opts.oracle == "all" || opts.oracle == o.name) selected.push_back(o);
  }

  // Pre-register every selected oracle so an always-skipped oracle still
  // shows up in the report (str() iterates `executed`): a silently
  // absent row would hide a 100% skip rate.
  for (const Oracle& o : selected) {
    report.executed[o.name];
    report.skipped[o.name];
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
    std::optional<OracleContext> ctx;
    try {
      inst_opt = generate_instance(seed, gen);
      ctx.emplace(*inst_opt, tables);
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

    for (const Oracle& oracle : selected) {
      const std::string& name = oracle.name;
      OracleOutcome out = run_guarded(oracle, *ctx);
      if (out.status == OracleStatus::kSkip) {
        ++report.skipped[name];
        ++report.skip_reasons[name + ": " + out.detail];
        continue;
      }
      ++report.executed[name];
      if (out.status == OracleStatus::kPass) continue;

      FuzzInstance culprit = ctx->inst();
      std::string detail = out.detail;
      if (opts.shrink) {
        culprit = shrink_instance(
            std::move(culprit), [&](const FuzzInstance& cand) {
              OracleContext cc(cand, tables);
              const OracleOutcome o = run_guarded(oracle, cc);
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
