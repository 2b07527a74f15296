#pragma once
/// \file plan.hpp
/// The optimizer's output: a fully specified parallel execution plan plus
/// the per-array accounting needed to reproduce the paper's Tables 1–2.

#include <optional>
#include <string>
#include <vector>

#include "tce/dist/cannon_space.hpp"

namespace tce {

/// How one contraction step executes.
enum class StepTemplate {
  kCannon,      ///< Generalized Cannon rotations (the paper's template).
  kReplicated,  ///< Replicate–compute–reduce (extension): allgather the
                ///< small operand, keep the other stationary, combine
                ///< result partials with a reduce-scatter.
};

/// One contraction step of the plan (post-order over the tree).
struct PlanStep {
  NodeId node = kNoNode;
  std::string result_name;
  StepTemplate tmpl = StepTemplate::kCannon;
  CannonChoice choice;        ///< Triplet/orientation/rotation (kCannon).
  IndexSet fusion;            ///< Result's fused indices with its parent.
  IndexSet effective_fused;   ///< All fused loops enclosing this node's
                              ///< collectives (own + fused children).
  Distribution left_dist;     ///< β — left operand distribution.  For a
                              ///< kReplicated step the replicated side is
                              ///< ⟨·,·⟩ (every rank holds it whole).
  Distribution right_dist;    ///< γ — right operand distribution.
  Distribution result_dist;   ///< α — result distribution.
  bool replicate_right = false;  ///< kReplicated: which side is gathered.
  int reduce_dim = 0;         ///< kReplicated: grid dim of the partial
                              ///< reduction (0 = none needed).
  double rot_left_s = 0;      ///< Comm cost of the left operand here
                              ///< (rotation, or allgather if replicated).
  double rot_right_s = 0;
  double rot_result_s = 0;    ///< Result comm (rotation or reduce).
  double redist_left_s = 0;   ///< Redistribution cost paid for operands.
  double redist_right_s = 0;
};

/// One row of the paper-style array table.
struct ArrayReport {
  TensorRef full;     ///< Declared array.
  TensorRef reduced;  ///< After fusion (equal to full when unfused).
  bool is_input = false;
  bool is_output = false;
  std::optional<Distribution> initial_dist;  ///< At the producing node.
  std::optional<Distribution> final_dist;    ///< At the consuming node.
  std::uint64_t mem_per_node_bytes = 0;
  std::optional<double> comm_initial_s;  ///< Comm at the producing node.
  std::optional<double> comm_final_s;    ///< Comm at the consuming node.
};

/// Search effort at one contraction-tree node.
struct NodeSearchStats {
  NodeId node = kNoNode;
  std::string result_name;       ///< Result tensor of the node.
  std::uint64_t candidates = 0;  ///< Configurations costed here.
  std::uint64_t infeasible = 0;  ///< Dropped by the memory limit.
  std::uint64_t dominated = 0;   ///< Dropped by Pareto dominance.
  std::uint64_t kept = 0;        ///< Frontier size after pruning.
  double wall_s = 0;             ///< Search wall time at this node.
};

/// Search-effort statistics (reproduces the paper's claim that "the
/// pruning is effective in keeping the size of the solution set in each
/// node small" with hard numbers).
struct OptimizerStats {
  std::uint64_t candidates = 0;  ///< Configurations costed.
  std::uint64_t infeasible = 0;  ///< Dropped by the memory limit.
  std::uint64_t dominated = 0;   ///< Dropped by Pareto dominance.
  std::uint64_t kept = 0;        ///< Solutions surviving across all nodes.
  std::uint64_t max_per_node = 0;  ///< Largest per-node solution set.
  /// Redistribution candidates inserted between child result and parent
  /// operand distributions (§3.3's ⟨β,γ⟩-mismatch arcs).
  std::uint64_t redistributions = 0;
  std::uint64_t table_lookups = 0;   ///< Characterization-curve evals.
  std::uint64_t extrapolations = 0;  ///< Evals outside the measured range.
  /// Certified per-node memory lower bound from the static prover
  /// (tce/lint): no plan for this tree can use less.  0 when the prover
  /// did not run (disabled, or no memory limit).  Deterministic — a pure
  /// function of tree, grid and config.
  std::uint64_t prover_lb_node_bytes = 0;
  /// Certified per-processor communication lower bound for the tree
  /// (tce/lint comm prover), in 8-byte words: no plan under this
  /// configuration can move less.  Deterministic — a pure function of
  /// tree, grid and config.
  std::uint64_t comm_lb_words = 0;
  /// This plan's canonical achieved communication volume, in words per
  /// processor, priced by the search (core/accounting.hpp) and
  /// recomputable by lint::plan_comm_words; always ≥ comm_lb_words.
  std::uint64_t achieved_comm_words = 0;
  /// achieved_comm_words / comm_lb_words — the optimality gap (1.0 =
  /// provably communication-optimal).  When the bound is 0: 1.0 for a
  /// communication-free plan, else 0 (= no optimality claim).
  double comm_gap_ratio = 0;
  double search_wall_s = 0;          ///< Total optimize() wall time.
  std::vector<NodeSearchStats> nodes;  ///< Per-node effort, post-order.

  /// Human-readable multi-line rendering (the CLI's --stats output).
  std::string str() const;
};

/// Historical name; the struct predates the observability layer.
using SearchStats = OptimizerStats;

/// A complete optimized plan.
struct OptimizedPlan {
  double total_comm_s = 0;
  double total_compute_s = 0;  ///< Model compute time (flops / P / rate).
  std::uint64_t array_bytes_per_proc = 0;  ///< Σ per-processor array blocks.
  std::uint64_t max_msg_bytes_per_proc = 0;  ///< Largest single message.
  /// Peak *live* bytes per processor (inputs + live intermediates) — the
  /// liveness-aware accounting; equals at most array_bytes_per_proc.
  std::uint64_t peak_live_bytes_per_proc = 0;
  /// True when the plan was searched under liveness-aware accounting.
  bool liveness_aware = false;
  std::uint32_t procs_per_node = 1;

  std::vector<PlanStep> steps;      ///< Post-order.
  std::vector<ArrayReport> arrays;  ///< Inputs, intermediates, output.
  OptimizerStats stats;             ///< Search-effort accounting.

  double total_runtime_s() const { return total_comm_s + total_compute_s; }
  double comm_fraction() const {
    return total_runtime_s() > 0 ? total_comm_s / total_runtime_s() : 0.0;
  }
  /// Per-node memory including the send/receive buffer, as the paper
  /// accounts it.
  std::uint64_t bytes_per_node() const {
    return checked_mul(array_bytes_per_proc, procs_per_node);
  }
  std::uint64_t buffer_bytes_per_node() const {
    return checked_mul(max_msg_bytes_per_proc, procs_per_node);
  }

  /// Renders the paper-style per-array table (Tables 1–2 format).
  std::string table(const IndexSpace& space) const;
  /// One-paragraph summary (totals, fractions, memory).
  std::string summary(const IndexSpace& space) const;
};

}  // namespace tce
