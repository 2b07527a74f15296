#pragma once
/// \file oracles.hpp
/// The differential oracles: independent ways of evaluating a plan (or
/// the planner) that must agree with the DP optimizer.  The table in
/// docs/FUZZING.md lists what each checks against which reference.
///
/// Each oracle returns pass / skip / fail plus a human-readable detail;
/// a skip means the instance is outside the oracle's domain (e.g. an
/// analytic-model instance for simnet, or a search space above brute
/// force's cap), never that a check was silently weakened.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tce/costmodel/characterization.hpp"
#include "tce/fuzz/brute.hpp"
#include "tce/fuzz/generator.hpp"
#include "tce/simnet/network.hpp"

namespace tce::fuzz {

enum class OracleStatus { kPass, kSkip, kFail };

struct OracleOutcome {
  OracleStatus status = OracleStatus::kPass;
  std::string detail;  ///< Failure explanation or skip reason.
};

/// Characterization tables by (procs, procs_per_node): measuring the
/// simulated cluster costs more than anything else an instance builds,
/// so instances on one grid share it.
using TableCache =
    std::map<std::pair<std::uint32_t, std::uint32_t>, CharacterizationTable>;

/// One instance and what the oracles share about it: the tree, model and
/// network it builds, and the searches several oracles read, each run
/// on first use.  A search that throws is not kept, so the next oracle
/// that asks runs it again and meets the same exception.
class OracleContext {
 public:
  OracleContext(FuzzInstance inst, TableCache& tables);

  const FuzzInstance& inst() const { return inst_; }
  const ContractionTree& tree() const { return tree_; }
  const MachineModel& model() const { return *model_; }
  const Network& net() const { return net_; }

  /// optimize() at one thread; nullopt when no plan fits.
  const std::optional<OptimizedPlan>& plan();
  /// optimize_frontier(); empty when no plan fits.
  const std::vector<OptimizedPlan>& frontier();
  /// brute_force() under the instance's configuration.
  const BruteResult& brute();

 private:
  FuzzInstance inst_;
  ContractionTree tree_;
  Network net_;
  std::unique_ptr<MachineModel> model_;
  std::optional<std::optional<OptimizedPlan>> plan_;
  std::optional<std::vector<OptimizedPlan>> frontier_;
  std::optional<BruteResult> brute_;
};

/// One oracle: its `--oracle` name and its check.
struct Oracle {
  std::string name;
  OracleOutcome (*run)(OracleContext& ctx);
};

/// Every oracle, in the order `--oracle all` runs them.
const std::vector<Oracle>& oracles();

}  // namespace tce::fuzz
