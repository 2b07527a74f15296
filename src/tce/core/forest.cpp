#include "tce/core/forest.hpp"

#include <algorithm>

#include "tce/common/error.hpp"
#include "tce/core/accounting.hpp"

namespace tce {

namespace {

/// Per-tree memory summary extracted from a plan.
struct TreeMem {
  std::uint64_t inputs_pp = 0;  ///< Σ input blocks per processor.
  std::uint64_t output_pp = 0;  ///< Root output block per processor.
  std::uint64_t peak_inter_pp = 0;  ///< Live-intermediate peak.
};

TreeMem summarize(const OptimizedPlan& plan) {
  TreeMem m;
  for (const ArrayReport& row : plan.arrays) {
    const std::uint64_t pp = row.mem_per_node_bytes / plan.procs_per_node;
    if (row.is_input) m.inputs_pp += pp;
    if (row.is_output) m.output_pp = pp;
  }
  TCE_ENSURES(plan.peak_live_bytes_per_proc >= m.inputs_pp);
  m.peak_inter_pp = plan.peak_live_bytes_per_proc - m.inputs_pp;
  return m;
}

/// One partial selection over a prefix of the trees.  Its memory terms
/// are a Footprint's, so the DP's memory_metric and fits apply: `mem`
/// sums the trees' array bytes per processor, `max_msg` is the largest
/// message anywhere, `input_bytes` sums every tree's inputs and `peak`
/// is the largest live-intermediate peak over the tree positions.
struct State {
  double cost = 0;
  double compute = 0;
  Footprint fp;
  std::uint64_t out_prefix = 0;  ///< Outputs of finished trees.
  std::vector<std::size_t> picks;
};

}  // namespace

ForestPlan optimize_forest(const ContractionForest& forest,
                           const MachineModel& model,
                           const OptimizerConfig& config) {
  TCE_EXPECTS(!forest.trees.empty());

  // Per-tree Pareto frontiers, planned in program order (the first
  // tree's InfeasibleError propagates — if one tree cannot fit alone,
  // the program cannot).  Each tree's search fans out within its nodes.
  std::vector<std::vector<OptimizedPlan>> frontiers;
  frontiers.reserve(forest.trees.size());
  for (const ContractionTree& tree : forest.trees) {
    frontiers.push_back(optimize_frontier(tree, model, config));
  }

  auto metric = [&](const State& s) {
    return memory_metric(s.fp, config.liveness_aware);
  };

  std::vector<State> states(1);
  for (std::size_t t = 0; t < frontiers.size(); ++t) {
    std::vector<State> next;
    for (const State& base : states) {
      for (std::size_t p = 0; p < frontiers[t].size(); ++p) {
        const OptimizedPlan& plan = frontiers[t][p];
        const TreeMem m = summarize(plan);
        State s = base;
        s.cost += plan.total_comm_s;
        s.compute += plan.total_compute_s;
        s.fp.mem = checked_add(s.fp.mem, plan.array_bytes_per_proc);
        s.fp.max_msg = std::max(s.fp.max_msg, plan.max_msg_bytes_per_proc);
        s.fp.peak = std::max(s.fp.peak,
                             checked_add(s.out_prefix, m.peak_inter_pp));
        s.out_prefix = checked_add(s.out_prefix, m.output_pp);
        s.fp.input_bytes = checked_add(s.fp.input_bytes, m.inputs_pp);
        s.picks.push_back(p);
        next.push_back(std::move(s));
      }
    }
    // Pareto prune partial states on (cost, metric, max_msg, out_prefix).
    std::vector<State> pruned;
    for (State& s : next) {
      bool dominated = false;
      for (const State& q : next) {
        if (&q == &s) continue;
        const bool leq = q.cost <= s.cost && metric(q) <= metric(s) &&
                         q.fp.max_msg <= s.fp.max_msg &&
                         q.out_prefix <= s.out_prefix;
        // Ties are broken by position so exactly one of two identical
        // states survives.
        const bool strict = q.cost < s.cost || metric(q) < metric(s) ||
                            q.fp.max_msg < s.fp.max_msg ||
                            q.out_prefix < s.out_prefix || (&q < &s);
        if (leq && strict) {
          dominated = true;
          break;
        }
      }
      if (!dominated) pruned.push_back(std::move(s));
    }
    states = std::move(pruned);
  }

  const State* best = nullptr;
  for (const State& s : states) {
    if (!fits(s.fp, config, model.grid())) continue;
    if (best == nullptr || s.cost < best->cost) best = &s;
  }
  if (best == nullptr) {
    throw InfeasibleError(
        "no combination of per-tree plans fits the shared memory limit");
  }

  ForestPlan out;
  out.total_comm_s = best->cost;
  out.total_compute_s = best->compute;
  out.bytes_per_node = checked_mul(metric(*best),
                                   model.grid().procs_per_node);
  for (std::size_t t = 0; t < frontiers.size(); ++t) {
    out.plans.push_back(frontiers[t][best->picks[t]]);
  }
  return out;
}

}  // namespace tce
