#include "tce/core/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/thread_pool.hpp"
#include "tce/common/timer.hpp"
#include "tce/core/accounting.hpp"
#include "tce/core/frontier.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/fusion/fused.hpp"
#include "tce/lint/lint.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/verify/verifier.hpp"

namespace tce {

namespace {

/// One partial solution at a node (§3.3): produced distribution, fusion
/// with the parent, the subtree's Footprint, plus provenance for plan
/// extraction.
struct Sol {
  Distribution dist;
  IndexSet fusion;
  Footprint fp;

  /// Position in the node's canonical sequential enumeration order
  /// (work-unit index in the high bits, within-unit counter in the low
  /// bits).  Dominance ties resolve toward the lower seq, which makes
  /// the surviving frontier independent of how the enumeration was
  /// chunked across threads; see frontier.hpp.
  std::uint64_t seq = 0;

  // Provenance.
  bool replicated = false;      ///< Step template: replicate-compute-reduce.
  bool replicate_right = false; ///< Which operand was replicated.
  int reduce_dim = 0;           ///< Grid dim of the partial reduction.
  CannonChoice choice{};
  int left_sol = -1;   ///< Solution index in the child's set; -1 = leaf.
  int right_sol = -1;
  Distribution left_dist{};
  Distribution right_dist{};
  IndexSet eff_fused;
  double rot_left = 0, rot_right = 0, rot_result = 0;
  double redist_left = 0, redist_right = 0;
};

/// Pareto dominance with a deterministic tie-break; the memory metrics
/// compared depend on the accounting mode.  a dominates b when a is
/// weakly ≤ b on every compared metric and either strictly better
/// somewhere or (all-tied) earlier in enumeration order.  That makes
/// the relation a strict partial order, so a frontier's surviving set
/// is its unique maximal set — independent of insertion order — and it
/// coincides with what the former weak-dominance sequential insertion
/// kept.
bool dominates(const Sol& as, const Sol& bs, bool liveness) {
  const Footprint& a = as.fp;
  const Footprint& b = bs.fp;
  if (a.cost > b.cost || a.max_msg > b.max_msg) return false;
  bool strict = a.cost < b.cost || a.max_msg < b.max_msg;
  if (liveness) {
    // The parent's liveness roll-up adds a child's input_bytes to that
    // child's peak and working terms and to its sibling's, so a must be
    // no worse on input_bytes, input_bytes + peak and input_bytes +
    // working alike.  Saturating: these sums are only compared, and a
    // clamped compare stays correct while a wrapped one inverts the
    // dominance.
    const std::uint64_t a_peak = saturating_add(a.input_bytes, a.peak);
    const std::uint64_t b_peak = saturating_add(b.input_bytes, b.peak);
    const std::uint64_t a_work = saturating_add(a.input_bytes, a.working);
    const std::uint64_t b_work = saturating_add(b.input_bytes, b.working);
    if (a.input_bytes > b.input_bytes || a_peak > b_peak || a_work > b_work) {
      return false;
    }
    strict = strict || a.input_bytes < b.input_bytes || a_peak < b_peak ||
             a_work < b_work;
  } else {
    if (a.mem > b.mem) return false;
    strict = strict || a.mem < b.mem;
  }
  return strict || as.seq < bs.seq;
}

/// (distribution, fusion) bucket key of the per-node frontier.
using StateKey = std::pair<Distribution, IndexSet>;
using SolFrontier = KeyedFrontier<StateKey, Sol>;

/// Per-node (and, during the fan-out, per-chunk) search effort.  The
/// chunk accumulators are summed in chunk order, so every total is
/// independent of the thread count; per-node rows and the grand totals
/// in OptimizerStats are rolled up from these in post order.
struct NodeAccum {
  std::uint64_t candidates = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t dominated = 0;
  std::uint64_t bounded = 0;
  std::uint64_t kept = 0;
  std::uint64_t redistributions = 0;
  std::uint64_t lookups = 0;         ///< Characterization-curve evals.
  std::uint64_t extrapolations = 0;
  double wall_s = 0;

  void add(const NodeAccum& o) {
    candidates += o.candidates;
    infeasible += o.infeasible;
    dominated += o.dominated;
    bounded += o.bounded;
    redistributions += o.redistributions;
    lookups += o.lookups;
    extrapolations += o.extrapolations;
  }
};

/// Captures the thread-local characterization-curve counters around a
/// contiguous region of work on one thread and credits the delta to a
/// NodeAccum.  Regions never nest (prologue / chunk / reduce bodies).
class CurveScope {
 public:
  explicit CurveScope(NodeAccum& acc)
      : acc_(acc), before_(curve_counters()) {}
  ~CurveScope() {
    const CurveCounters after = curve_counters();
    acc_.lookups += after.lookups - before_.lookups;
    acc_.extrapolations += after.extrapolations - before_.extrapolations;
  }
  CurveScope(const CurveScope&) = delete;
  CurveScope& operator=(const CurveScope&) = delete;

 private:
  NodeAccum& acc_;
  const CurveCounters before_;
};

/// optimize()'s root.  Only the cheapest feasible root solution is
/// extracted (best_root_sol), so instead of a frontier the root keeps
/// the feasible candidates tied at the lowest cost seen so far.  Only a
/// candidate strictly dearer than that is dropped, so at the end the
/// ties are exactly the candidates at the optimal cost; a frontier
/// built from them keeps the same cheapest survivors as the full
/// frontier (only a tie can dominate a tie), and best_root_sol, which
/// picks among those alone, picks the same one.
class Incumbent {
 public:
  /// Whether a candidate costing at least \p cost can be dropped.
  bool beats(double cost) const { return cost > cost_; }

  /// Keeps priced, feasible \p s while it ties or undercuts the
  /// incumbent.  Each candidate dropped, now or when undercut later,
  /// counts once in acc.bounded.
  void offer(Sol&& s, NodeAccum& acc) {
    if (beats(s.fp.cost)) {
      ++acc.bounded;
      return;
    }
    if (s.fp.cost < cost_) {
      acc.bounded += ties_.size();
      ties_.clear();
      cost_ = s.fp.cost;
    }
    ties_.push_back(std::move(s));
  }

  /// The ties, in offer (seq) order.
  std::vector<Sol> take() && { return std::move(ties_); }

 private:
  double cost_ = std::numeric_limits<double>::infinity();
  std::vector<Sol> ties_;
};

/// Where one chunk of a node's candidates goes, with the chunk's effort
/// counters: its frontier, or at optimize()'s root an Incumbent.
struct Sink {
  SolFrontier frontier;
  Incumbent* incumbent = nullptr;
  NodeAccum acc;
};

class Search {
 public:
  Search(const ContractionTree& tree, const MachineModel& model,
         const OptimizerConfig& cfg)
      : tree_(tree),
        model_(model),
        cfg_(cfg),
        grid_(model.grid()),
        space_(tree.space()),
        threads_(ThreadPool::resolve_threads(cfg.threads)) {}

  /// The cheapest plan.  The root is solved for it alone (Incumbent).
  OptimizedPlan run() {
    root_incumbent_ = true;
    solve_all();
    return extract_plan(best_root_sol());
  }

  /// The Pareto frontier of full-tree plans over (cost, memory metric,
  /// largest message): every trade-off the tree admits under the
  /// configuration.  Sorted by increasing cost; exact-triple duplicates
  /// collapse onto the earliest-enumerated representative.
  std::vector<OptimizedPlan> run_frontier() {
    solve_all();
    const auto& root_sols = sols_[static_cast<std::size_t>(tree_.root())];
    // Global Pareto filter across all root solutions, over
    // (cost, memory metric, largest message) — the send/recv transient
    // matters to downstream consumers (forest composition) just like
    // array memory, so it must survive as its own dimension.  The
    // near-linear sweep replaces the former all-pairs scan.
    std::vector<FrontierPoint> points(root_sols.size());
    for (std::size_t i = 0; i < root_sols.size(); ++i) {
      const Footprint& fp = root_sols[i].fp;
      points[i] = {fp.cost, memory_metric(fp, cfg_.liveness_aware),
                   fp.max_msg, static_cast<std::uint32_t>(i)};
    }
    std::vector<OptimizedPlan> plans;
    for (std::uint32_t idx : pareto_min_filter(std::move(points))) {
      plans.push_back(extract_plan(&root_sols[idx]));
    }
    return plans;
  }

 private:
  // ------------------------------------------------------------ helpers

  void solve_all() {
    const Stopwatch total;
    sols_.assign(tree_.size(), {});
    accums_.assign(tree_.size(), {});
    const std::vector<NodeId> order = tree_.post_order();
    std::vector<NodeId> internal;
    for (NodeId id : order) {
      if (tree_.node(id).kind != ContractionNode::Kind::kInput) {
        internal.push_back(id);
      }
    }

    // Post order: every child's frontier is complete before its parent
    // reads it.  Each node fans out over its own candidates.
    for (NodeId id : internal) solve_node(id);

    // Deterministic roll-up in post order: per-node rows first, then
    // the grand totals.  Chunk/thread scheduling is invisible here.
    for (NodeId id : internal) {
      const NodeAccum& a = accums_[static_cast<std::size_t>(id)];
      NodeSearchStats ns;
      ns.node = id;
      ns.result_name = tree_.node(id).tensor.name;
      ns.candidates = a.candidates;
      ns.infeasible = a.infeasible;
      ns.dominated = a.dominated;
      ns.bounded = a.bounded;
      ns.kept = a.kept;
      ns.wall_s = a.wall_s;
      stats_.nodes.push_back(ns);
      stats_.candidates += a.candidates;
      stats_.infeasible += a.infeasible;
      stats_.dominated += a.dominated;
      stats_.bounded += a.bounded;
      stats_.kept += a.kept;
      stats_.max_per_node = std::max(stats_.max_per_node, a.kept);
      stats_.redistributions += a.redistributions;
      stats_.table_lookups += a.lookups;
      stats_.extrapolations += a.extrapolations;
    }
    stats_.search_wall_s = total.elapsed_s();
    if (obs::metrics_enabled()) {
      obs::count("opt.curve.lookups", stats_.table_lookups);
      obs::count("opt.curve.extrapolations", stats_.extrapolations);
      obs::observe("opt.search_wall_s", stats_.search_wall_s);
    }
  }

  void solve_node(NodeId id) {
    const ContractionNode& n = tree_.node(id);
    NodeAccum& acc = accums_[static_cast<std::size_t>(id)];
    const Stopwatch watch;
    switch (n.kind) {
      case ContractionNode::Kind::kContraction:
        solve_contraction(id, acc);
        break;
      case ContractionNode::Kind::kReduce:
        solve_reduce(id, acc);
        break;
      case ContractionNode::Kind::kInput:
        return;
    }
    acc.kept = sols_[static_cast<std::size_t>(id)].size();
    acc.wall_s = watch.elapsed_s();
    note_node_done(id, n, acc);
  }

  /// Per-node observability after one solve_* call, on the thread that
  /// runs the search once the node's fan-out has joined.  The metrics
  /// registry and trace sink are thread-safe, so concurrent searches
  /// (the daemon's) may record at the same time.
  void note_node_done(NodeId id, const ContractionNode& n,
                      const NodeAccum& acc) {
    if (obs::metrics_enabled()) {
      obs::count("opt.nodes");
      obs::count("opt.candidates", acc.candidates);
      obs::count("opt.infeasible", acc.infeasible);
      obs::count("opt.dominated", acc.dominated);
      obs::count("opt.bounded", acc.bounded);
      obs::count("opt.kept", acc.kept);
      obs::count("opt.redistributions", acc.redistributions);
      obs::observe("opt.frontier", static_cast<double>(acc.kept));
      obs::observe("opt.node_candidates",
                   static_cast<double>(acc.candidates));
      obs::observe("opt.node_wall_s", acc.wall_s);
    }
    if (obs::trace_enabled()) {
      const std::uint64_t dur_us =
          static_cast<std::uint64_t>(acc.wall_s * 1e6);
      const std::uint64_t now_us = obs::trace_now_us();
      obs::trace_complete(
          "dp.node " + n.tensor.name, "optimizer",
          now_us > dur_us ? now_us - dur_us : 0, dur_us,
          json::ObjectWriter()
              .field("node", static_cast<std::uint64_t>(id))
              .field("result", n.tensor.name)
              .field("candidates", acc.candidates)
              .field("infeasible", acc.infeasible)
              .field("dominated", acc.dominated)
              .field("bounded", acc.bounded)
              .field("kept", acc.kept)
              .str());
    }
  }

  /// The root solution optimize() extracts: the least (cost, memory
  /// metric, largest message), then the earliest — the order
  /// run_frontier's plans come in, so both return the same first plan.
  const Sol* best_root_sol() const {
    const NodeId root = tree_.root();
    if (tree_.node(root).kind == ContractionNode::Kind::kInput) {
      throw Error("optimize: tree is a single input array");
    }
    const auto& root_sols = sols_[static_cast<std::size_t>(root)];
    const auto rank = [lv = cfg_.liveness_aware](const Sol& s) {
      return std::tuple(s.fp.cost, memory_metric(s.fp, lv), s.fp.max_msg);
    };
    const Sol* best = nullptr;
    for (const Sol& s : root_sols) {
      if (best == nullptr || rank(s) < rank(*best)) best = &s;
    }
    TCE_ENSURES(best != nullptr);
    return best;
  }

  /// The frontier's dominance relation under the accounting mode.
  auto dom() const {
    return [lv = cfg_.liveness_aware](const Sol& a, const Sol& b) {
      return dominates(a, b, lv);
    };
  }

  /// Whether node \p id is optimize()'s root, solved for its cheapest
  /// solution only.
  bool incumbent_at(NodeId id) const {
    return root_incumbent_ && id == tree_.root();
  }

  /// Stamps a priced candidate's enumeration position and, when it fits
  /// the per-node limit, offers it to the sink.
  void offer(Sol&& s, std::size_t unit, std::uint64_t& local,
             Sink& out) const {
    s.seq = (static_cast<std::uint64_t>(unit) << 32) | local++;
    ++out.acc.candidates;
    if (!fits(s.fp, cfg_, grid_)) {
      ++out.acc.infeasible;
      return;
    }
    if (out.incumbent != nullptr) {
      out.incumbent->offer(std::move(s), out.acc);
      return;
    }
    out.frontier.insert({s.dist, s.fusion}, std::move(s), dom(),
                        out.acc.dominated);
  }

  /// Drops a candidate before its step is priced when the incumbent
  /// already beats its operands alone (operands_cost, which its cost is
  /// never below), counting it as a bounded candidate.
  static bool bounded_early(const Delivered& first, const Delivered& second,
                            std::uint64_t& local, Sink& out) {
    if (out.incumbent == nullptr ||
        !out.incumbent->beats(operands_cost(first, second))) {
      return false;
    }
    ++local;
    ++out.acc.candidates;
    ++out.acc.bounded;
    return true;
  }

  /// The sink's frontier, holding the incumbent's ties when it has one.
  SolFrontier settle(Sink& out) const {
    if (out.incumbent != nullptr) {
      for (Sol& s : std::move(*out.incumbent).take()) {
        out.frontier.insert({s.dist, s.fusion}, std::move(s), dom(),
                            out.acc.dominated);
      }
    }
    return std::move(out.frontier);
  }

  // ------------------------------------------------ operand memoization

  /// Key of one memoized operand-options scan: which child, consumed in
  /// which distribution, under which triplet (and whether any stored
  /// layout qualifies — the replicated-operand case).
  struct OperandKey {
    NodeId child = kNoNode;
    std::uint8_t d1 = kNoIndex;
    std::uint8_t d2 = kNoIndex;
    bool any_dist = false;
    std::uint64_t triplet = 0;

    friend bool operator<(const OperandKey& a, const OperandKey& b) {
      if (a.child != b.child) return a.child < b.child;
      if (a.d1 != b.d1) return a.d1 < b.d1;
      if (a.d2 != b.d2) return a.d2 < b.d2;
      if (a.any_dist != b.any_dist) return a.any_dist < b.any_dist;
      return a.triplet < b.triplet;
    }
  };
  /// Concurrency: filled only during the sequential prologue of each
  /// node visit (before the parallel_for fan-out) and passed to the
  /// workers by const reference, so the fan-out reads it without
  /// locking; never mutated concurrently.
  using OperandCache = std::map<OperandKey, std::vector<Delivered>>;

  static OperandKey operand_key(NodeId child, const Distribution& beta,
                                IndexSet triplet, bool any_dist) {
    return {child, beta.at(1), beta.at(2), any_dist, triplet.bits()};
  }

  /// Computes (once per key) all ways to obtain the operand rooted at
  /// \p child with distribution \p beta, given the consuming node's
  /// triplet indices.  When \p any_dist is set (the replicated operand
  /// of a replicate-compute-reduce step) every child solution qualifies
  /// as is; \p beta is then only a leaf's storage layout.  The Cannon
  /// choices of one triplet differ only in rotation index and
  /// orientation, so this scan used to repeat per choice; the cache
  /// runs it once.
  void ensure_operands(OperandCache& cache, GeomCache& geom, NodeId child,
                       const Distribution& beta, IndexSet triplet,
                       bool any_dist, NodeAccum& acc) const {
    const OperandKey key = operand_key(child, beta, triplet, any_dist);
    if (cache.contains(key)) return;

    const ContractionNode& cn = tree_.node(child);
    std::vector<Delivered>& out = cache[key];
    if (cn.kind == ContractionNode::Kind::kInput) {
      // Inputs can be distributed initially in any way at zero cost.
      out.push_back(leaf_operand(geom, cn.tensor, beta));
      return;
    }
    const auto& sols = sols_[static_cast<std::size_t>(child)];
    for (int i = 0; i < static_cast<int>(sols.size()); ++i) {
      const Sol& s = sols[static_cast<std::size_t>(i)];
      if (!(s.fusion & triplet).empty()) continue;
      std::optional<Delivered> d =
          produced_operand(model_, geom, cfg_, cn.tensor, s.fp, s.dist,
                           s.fusion, beta, any_dist);
      if (!d) continue;
      if (!any_dist && s.dist != beta) ++acc.redistributions;
      d->sol = i;
      out.push_back(*d);
    }
  }

  // ------------------------------------------------------- contraction

  void solve_contraction(NodeId id, NodeAccum& acc) {
    const ContractionNode& n = tree_.node(id);
    const auto choices = enumerate_cannon_choices(n);
    const auto fusions = fusion_candidates(tree_, cfg_, id);
    std::vector<ReplUnit> units;
    if (cfg_.enable_replication_template) units = repl_units(n);

    // Sequential prologue: memoize every operand-options scan the work
    // units will need, so the fan-out below only reads the cache.
    OperandCache opcache;
    {
      const CurveScope cs(acc);
      GeomCache geom(space_, grid_);
      for (const CannonChoice& c : choices) {
        const IndexSet triplet = triplet_of(c);
        ensure_operands(opcache, geom, n.left, c.left_dist(), triplet,
                        /*any_dist=*/false, acc);
        ensure_operands(opcache, geom, n.right, c.right_dist(), triplet,
                        /*any_dist=*/false, acc);
      }
      for (const ReplUnit& u : units) {
        const NodeId repl_id = u.repl_right ? n.right : n.left;
        for (IndexId j_pick : with_none(repl_side(n, u))) {
          const ReplStep st = repl_step(u, j_pick);
          ensure_operands(opcache, geom, u.repl_right ? n.left : n.right,
                          st.stationary, st.triplet, /*any_dist=*/false,
                          acc);
          ensure_operands(opcache, geom, repl_id,
                          compact_dist(tree_.node(repl_id).tensor),
                          st.triplet, /*any_dist=*/true, acc);
        }
      }
    }

    // Fan the work units (one per Cannon choice, then one per outer
    // replication tuple) across the pool.  Each chunk of consecutive
    // units builds its own frontier and effort counters; merging the
    // chunks in ascending order afterwards reproduces the sequential
    // insertion exactly (see frontier.hpp), so the result is the same
    // at every thread count — including 1, which runs this very loop
    // inline.  An incumbent root is one chunk: what its bound drops
    // depends on every earlier candidate, so splitting it would make
    // the counters depend on the thread count.
    const std::size_t total = choices.size() + units.size();
    const std::size_t chunks =
        threads_ <= 1 || incumbent_at(id)
            ? 1
            : std::min<std::size_t>(total,
                                    static_cast<std::size_t>(threads_) * 4);
    std::vector<Sink> outs(chunks);
    Incumbent root_best;
    if (incumbent_at(id)) outs.front().incumbent = &root_best;
    ThreadPool::shared().parallel_for(
        chunks, threads_, [&](std::size_t ci) {
          Sink& o = outs[ci];
          const CurveScope cs(o.acc);
          GeomCache geom(space_, grid_);
          const std::size_t begin = ci * total / chunks;
          const std::size_t end = (ci + 1) * total / chunks;
          for (std::size_t u = begin; u < end; ++u) {
            if (u < choices.size()) {
              eval_choice(id, n, choices[u], u, fusions, opcache, geom, o);
            } else {
              eval_replicated(id, n, units[u - choices.size()], u, fusions,
                              opcache, geom, o);
            }
          }
        });

    SolFrontier frontier;
    for (Sink& o : outs) {
      SolFrontier settled = settle(o);
      acc.add(o.acc);
      frontier.merge(std::move(settled), dom(), acc.dominated);
    }

    if (frontier.empty()) {
      throw InfeasibleError(
          "no feasible solution at node producing '" + n.tensor.name +
          "' under the memory limit");
    }
    sols_[static_cast<std::size_t>(id)] = std::move(frontier).flatten();
  }

  /// All candidates of one generalized-Cannon choice (one work unit).
  void eval_choice(NodeId id, const ContractionNode& n,
                   const CannonChoice& c, std::size_t unit,
                   const std::vector<IndexSet>& fusions,
                   const OperandCache& opcache, GeomCache& geom,
                   Sink& out) const {
    std::uint64_t local = 0;
    const IndexSet triplet = triplet_of(c);
    const double dup = duplication_s(model_, tree_.flops(id),
                                     static_cast<int>(triplet.count()) - 1);
    const Distribution alpha = c.result_dist();
    const Distribution beta = c.left_dist();
    const Distribution gamma = c.right_dist();
    const ContractionNode& ln = tree_.node(n.left);
    const ContractionNode& rn = tree_.node(n.right);
    const IndexSet l_loops = ln.loop_indices();
    const IndexSet r_loops = rn.loop_indices();
    const auto& lopts =
        opcache.at(operand_key(n.left, beta, triplet, /*any_dist=*/false));
    const auto& ropts =
        opcache.at(operand_key(n.right, gamma, triplet, /*any_dist=*/false));

    for (IndexSet f_u : fusions) {
      if (!(f_u & triplet).empty()) continue;
      const std::uint64_t own_mem = geom.bytes(n.tensor, alpha, f_u);
      for (const Delivered& lo : lopts) {
        if (!fusion_nesting_ok(f_u, lo.fusion, l_loops)) continue;
        for (const Delivered& ro : ropts) {
          if (!fusion_nesting_ok(f_u, ro.fusion, r_loops)) continue;
          if (bounded_early(lo, ro, local, out)) continue;
          const IndexSet f_eff = f_u | lo.fusion | ro.fusion;
          const StepComm comm = price(model_, cannon_collectives(
              geom, c, ln.tensor, rn.tensor, n.tensor, f_eff));
          Sol s = step_sol(alpha, f_u, f_eff, lo, ro, comm);
          s.choice = c;
          s.left_dist = beta;
          s.right_dist = gamma;
          s.fp = roll_up(lo, ro, comm, dup, own_mem, !f_u.empty());
          offer(std::move(s), unit, local, out);
        }
      }
    }
  }

  /// The fields every contraction candidate records: result layout,
  /// fusions, and per-operand provenance of \p left / \p right.
  static Sol step_sol(const Distribution& alpha, IndexSet f_u,
                      IndexSet f_eff, const Delivered& left,
                      const Delivered& right, const StepComm& comm) {
    Sol s;
    s.dist = alpha;
    s.fusion = f_u;
    s.eff_fused = f_eff;
    s.left_sol = left.sol;
    s.right_sol = right.sol;
    s.redist_left = left.redist_s;
    s.redist_right = right.redist_s;
    s.rot_left = comm.left_s;
    s.rot_right = comm.right_s;
    s.rot_result = comm.result_s;
    return s;
  }

  // ----------------------------------------- replicate-compute-reduce

  /// Indices of the gathered operand (the scatter index comes from them).
  static IndexSet repl_side(const ContractionNode& n, const ReplUnit& u) {
    return u.repl_right ? n.right_indices : n.left_indices;
  }

  /// All candidates of one replicate-compute-reduce unit (see
  /// OptimizerConfig::enable_replication_template): one operand is
  /// gathered whole onto every processor, the other stays put in a
  /// ⟨s_r, s_k⟩ block distribution, and the result partials are
  /// combined with a reduce-scatter along the grid dimension holding
  /// s_k, scattered there by j_pick.  The step's collectives depend on
  /// the candidate only through f_eff, so each distinct f_eff is priced
  /// once per j_pick.
  void eval_replicated(NodeId id, const ContractionNode& n,
                       const ReplUnit& u, std::size_t unit,
                       const std::vector<IndexSet>& fusions,
                       const OperandCache& opcache, GeomCache& geom,
                       Sink& out) const {
    std::uint64_t local = 0;
    const NodeId stat_id = u.repl_right ? n.left : n.right;
    const NodeId repl_id = u.repl_right ? n.right : n.left;
    const ContractionNode& sn = tree_.node(stat_id);
    const ContractionNode& gn = tree_.node(repl_id);
    const IndexSet s_loops = sn.loop_indices();
    const IndexSet g_loops = gn.loop_indices();
    const double dup = duplication_s(model_, tree_.flops(id), u.split_dims());
    std::vector<std::pair<IndexSet, StepComm>> priced;

    for (IndexId j_pick : with_none(repl_side(n, u))) {
      const ReplStep st = repl_step(u, j_pick);
      priced.clear();
      const auto& sopts = opcache.at(operand_key(
          stat_id, st.stationary, st.triplet, /*any_dist=*/false));
      const auto& gopts = opcache.at(operand_key(
          repl_id, compact_dist(gn.tensor), st.triplet, /*any_dist=*/true));

      for (IndexSet f_u : fusions) {
        if (!(f_u & st.triplet).empty()) continue;
        const std::uint64_t own_mem = geom.bytes(n.tensor, st.result, f_u);
        for (const Delivered& so : sopts) {
          if (!fusion_nesting_ok(f_u, so.fusion, s_loops)) continue;
          for (const Delivered& go : gopts) {
            if (!fusion_nesting_ok(f_u, go.fusion, g_loops)) continue;
            if (bounded_early(so, go, local, out)) continue;
            const IndexSet f_eff = f_u | so.fusion | go.fusion;
            auto hit = std::find_if(
                priced.begin(), priced.end(),
                [&](const auto& p) { return p.first == f_eff; });
            if (hit == priced.end()) {
              hit = priced.emplace(
                  priced.end(), f_eff,
                  price(model_, replicated_collectives(geom, st, gn.tensor,
                                                       n.tensor, f_eff)));
            }
            const StepComm& comm = hit->second;
            Sol s = step_sol(st.result, f_u, f_eff, u.repl_right ? so : go,
                             u.repl_right ? go : so, comm);
            s.replicated = true;
            s.replicate_right = u.repl_right;
            s.reduce_dim = st.reduce_dim;
            (u.repl_right ? s.left_dist : s.right_dist) = st.stationary;
            s.fp = roll_up(so, go, comm, dup, own_mem, !f_u.empty());
            offer(std::move(s), unit, local, out);
          }
        }
      }
    }
  }

  // ------------------------------------------------------------ reduce

  void solve_reduce(NodeId id, NodeAccum& acc) {
    const CurveScope cs(acc);
    Sink out;
    Incumbent root_best;
    if (incumbent_at(id)) out.incumbent = &root_best;
    const ContractionNode& n = tree_.node(id);
    const ContractionNode& cn = tree_.node(n.left);
    const auto fusions = fusion_candidates(tree_, cfg_, id);
    GeomCache geom(space_, grid_);

    // Child options: every distribution of a leaf, or the child's own
    // (unfused) solutions.
    std::vector<std::pair<Distribution, Delivered>> copts;
    if (cn.kind == ContractionNode::Kind::kInput) {
      for (const Distribution& d : enumerate_distributions(cn.tensor)) {
        copts.emplace_back(d, leaf_operand(geom, cn.tensor, d));
      }
    } else {
      const auto& sols = sols_[static_cast<std::size_t>(n.left)];
      for (int i = 0; i < static_cast<int>(sols.size()); ++i) {
        const Sol& s = sols[static_cast<std::size_t>(i)];
        if (!s.fusion.empty()) continue;  // reduce consumes materialized
        Delivered d;
        d.fp = s.fp;
        d.sol = i;
        copts.emplace_back(s.dist, d);
      }
    }

    std::uint64_t seq = 0;
    for (const auto& [cdist, co] : copts) {
      const Distribution rdist = reduce_dist(cdist, n.sum_indices);
      for (IndexSet f_u : fusions) {
        if (!(f_u & rdist.index_set()).empty()) continue;
        const StepComm comm =
            reduce_comm(model_, geom, n.tensor, cdist, rdist, f_u);
        Sol s;
        s.dist = rdist;
        s.fusion = f_u;
        s.left_sol = co.sol;
        s.left_dist = cdist;
        s.eff_fused = f_u;
        s.rot_result = comm.result_s;
        s.fp = roll_up(co, Delivered(), comm, 0.0,
                       geom.bytes(n.tensor, rdist, f_u), !f_u.empty());
        offer(std::move(s), 0, seq, out);
      }
    }
    SolFrontier frontier = settle(out);
    acc.add(out.acc);
    if (frontier.empty()) {
      throw InfeasibleError(
          "no feasible solution at reduce node producing '" +
          n.tensor.name + "' under the memory limit");
    }
    sols_[static_cast<std::size_t>(id)] = std::move(frontier).flatten();
  }

  // ----------------------------------------------------- plan extraction

  OptimizedPlan extract_plan(const Sol* best) {
    const NodeId root = tree_.root();

    OptimizedPlan plan;
    plan.total_comm_s = best->fp.cost;
    plan.total_compute_s =
        model_.compute_time(tree_.total_flops() / grid_.procs);
    plan.array_bytes_per_proc = best->fp.mem;
    plan.max_msg_bytes_per_proc = best->fp.max_msg;
    plan.peak_live_bytes_per_proc =
        checked_add(best->fp.input_bytes, best->fp.peak);
    plan.liveness_aware = cfg_.liveness_aware;
    plan.procs_per_node = grid_.procs_per_node;
    plan.stats = stats_;
    plan.stats.achieved_comm_words = best->fp.comm_words;

    // Walk the provenance tree, collecting steps (post-order) and array
    // rows.  Consumer-side info for each child array is attached while
    // visiting the parent.
    struct ConsumerInfo {
      Distribution dist;    ///< As consumed (⟨·,·⟩ = replicated).
      double comm;
      Distribution stored;  ///< Block layout it is *stored* in (differs
                            ///< from `dist` for replicated operands,
                            ///< which are gathered transiently).
    };
    std::map<NodeId, ConsumerInfo> consumed;
    std::map<NodeId, const Sol*> chosen;

    // First pass: resolve the chosen Sol of every visited node.
    walk(root, best, [&](NodeId id, const Sol* s) { chosen[id] = s; });

    // Second pass: steps and consumer info.
    for (NodeId id : tree_.post_order()) {
      auto it = chosen.find(id);
      if (it == chosen.end()) continue;
      const ContractionNode& n = tree_.node(id);
      const Sol* s = it->second;
      if (n.kind == ContractionNode::Kind::kContraction) {
        PlanStep step;
        step.node = id;
        step.result_name = n.tensor.name;
        step.tmpl = s->replicated ? StepTemplate::kReplicated
                                  : StepTemplate::kCannon;
        step.result_dist = s->dist;
        step.replicate_right = s->replicate_right;
        step.reduce_dim = s->reduce_dim;
        step.choice = s->choice;
        step.fusion = s->fusion;
        step.effective_fused = s->eff_fused;
        step.left_dist = s->left_dist;
        step.right_dist = s->right_dist;
        step.rot_left_s = s->rot_left;
        step.rot_right_s = s->rot_right;
        step.rot_result_s = s->rot_result;
        step.redist_left_s = s->redist_left;
        step.redist_right_s = s->redist_right;
        plan.steps.push_back(step);
        Distribution left_stored = s->left_dist;
        Distribution right_stored = s->right_dist;
        if (s->replicated) {
          // The replicated operand is stored block-distributed and only
          // gathered whole for the duration of the step.
          if (s->replicate_right) {
            right_stored = compact_dist(tree_.node(n.right).tensor);
          } else {
            left_stored = compact_dist(tree_.node(n.left).tensor);
          }
        }
        consumed[n.left] = {s->left_dist, s->rot_left + s->redist_left,
                            left_stored};
        consumed[n.right] = {s->right_dist,
                             s->rot_right + s->redist_right,
                             right_stored};
      } else if (n.kind == ContractionNode::Kind::kReduce) {
        consumed[n.left] = {s->left_dist, 0.0, s->left_dist};
      }
    }

    // Array rows: leaves first (tree order), then internal nodes.
    auto add_row = [&](NodeId id) {
      const ContractionNode& n = tree_.node(id);
      ArrayReport row;
      row.full = n.tensor;
      row.is_input = n.kind == ContractionNode::Kind::kInput;
      row.is_output = id == root;
      IndexSet fusion;
      Distribution stored_dist;
      if (row.is_input) {
        auto c = consumed.find(id);
        TCE_ENSURES(c != consumed.end());
        stored_dist = c->second.stored;
        row.final_dist = c->second.dist;
        row.comm_final_s = c->second.comm;
      } else {
        const Sol* s = chosen.at(id);
        fusion = s->fusion;
        stored_dist = s->dist;
        row.initial_dist = s->dist;
        row.comm_initial_s = s->rot_result;
        auto c = consumed.find(id);
        if (c != consumed.end()) {
          row.final_dist = c->second.dist;
          row.comm_final_s = c->second.comm;
        }
      }
      row.reduced = fused_ref(n.tensor, fusion);
      row.mem_per_node_bytes = checked_mul(
          dist_bytes(n.tensor, stored_dist, fusion, space_, grid_),
          grid_.procs_per_node);
      plan.arrays.push_back(std::move(row));
    };
    for (NodeId id : tree_.leaves()) {
      if (consumed.contains(id)) add_row(id);
    }
    for (NodeId id : tree_.post_order()) {
      if (tree_.node(id).kind != ContractionNode::Kind::kInput &&
          chosen.contains(id)) {
        add_row(id);
      }
    }
    return plan;
  }

  /// Visits the chosen solution of every internal node under (id, s).
  template <typename Fn>
  void walk(NodeId id, const Sol* s, Fn&& fn) {
    fn(id, s);
    const ContractionNode& n = tree_.node(id);
    if (n.left != kNoNode && s->left_sol >= 0) {
      walk(n.left,
           &sols_[static_cast<std::size_t>(
               n.left)][static_cast<std::size_t>(s->left_sol)],
           fn);
    }
    if (n.right != kNoNode && s->right_sol >= 0) {
      walk(n.right,
           &sols_[static_cast<std::size_t>(
               n.right)][static_cast<std::size_t>(s->right_sol)],
           fn);
    }
  }

  const ContractionTree& tree_;
  const MachineModel& model_;
  const OptimizerConfig& cfg_;
  const ProcGrid& grid_;
  const IndexSpace& space_;
  const unsigned threads_;
  /// Set by run(): the root keeps an Incumbent instead of a frontier.
  bool root_incumbent_ = false;
  /// Per-node solved frontiers, indexed by NodeId.  Written once per
  /// node, in post order, after its fan-out has joined, so a parent
  /// reads only complete child frontiers.
  std::vector<std::vector<Sol>> sols_;
  std::vector<NodeAccum> accums_;
  OptimizerStats stats_;
};

/// TCE_VERIFY_PLANS debug mode: re-derive every invariant of \p plan
/// before handing it to the caller.  The verifier shares no search code
/// with the optimizer, so agreement here is a genuine cross-check.
void maybe_verify(const ContractionTree& tree, const MachineModel& model,
                  const OptimizerConfig& config,
                  const OptimizedPlan& plan) {
  if (!verify_plans_enabled()) return;
  VerifyOptions opts;
  opts.mem_limit_node_bytes = config.mem_limit_node_bytes;
  const VerifyReport report = verify_plan(tree, model, plan, opts);
  if (!report.ok()) {
    throw Error("TCE_VERIFY_PLANS: optimizer emitted an invalid plan\n" +
                report.str(tree));
  }
}

/// Static prover fast path (tce/lint): certifies infeasibility before the
/// DP runs, throwing lint::CertifiedInfeasibleError with the certificate,
/// and yields the certified root lower bound for the plan stats.
/// Returns 0 without proving anything when the prover is disabled or no
/// limit is set.
std::uint64_t prove_or_throw(const ContractionTree& tree,
                             const MachineModel& model,
                             const OptimizerConfig& config) {
  if (!config.enable_static_prover || config.mem_limit_node_bytes == 0) {
    return 0;
  }
  const lint::ProverResult pr =
      lint::prove_memory(tree, model.grid(), lint_config_of(config));
  if (pr.certificate) {
    obs::count("opt.prover_infeasible");
    obs::trace_instant("prover_infeasible", "optimizer");
    if (obs::log_enabled(obs::LogLevel::kError)) {
      obs::log_event(obs::LogLevel::kError, "optimizer",
                     "prover.infeasible",
                     json::ObjectWriter()
                         .field("node", pr.certificate->node)
                         .field("lower_bound_node_bytes",
                                pr.certificate->lower_bound_node_bytes)
                         .field("mem_limit_node_bytes",
                                pr.certificate->mem_limit_node_bytes)
                         .str());
    }
    throw lint::CertifiedInfeasibleError(*pr.certificate);
  }
  return pr.root_lower_bound_node_bytes;
}

/// Stamps the communication-optimality accounting (tce/lint comm
/// prover): the certified lower bound and its ratio to the plan's
/// canonical achieved words (priced by the search; the plan verifier
/// recounts them under rule cost.total).
void stamp_comm_gap(std::uint64_t comm_lb, OptimizedPlan& plan) {
  plan.stats.comm_lb_words = comm_lb;
  if (comm_lb != 0) {
    plan.stats.comm_gap_ratio =
        static_cast<double>(plan.stats.achieved_comm_words) /
        static_cast<double>(comm_lb);
  } else {
    // A zero bound makes no optimality claim — unless the plan is also
    // communication-free, in which case it is trivially optimal.
    plan.stats.comm_gap_ratio =
        plan.stats.achieved_comm_words == 0 ? 1.0 : 0.0;
  }
}

}  // namespace

// Fixed fusions are subsets of the fusable sets, so they count as fusion
// enabled: the fusion-aware (smaller, still sound) bounds cover that
// baseline too.
lint::LintConfig lint_config_of(const OptimizerConfig& config) {
  lint::LintConfig lcfg;
  lcfg.mem_limit_node_bytes = config.mem_limit_node_bytes;
  lcfg.enable_fusion =
      config.enable_fusion || config.fixed_fusions.has_value();
  lcfg.liveness_aware = config.liveness_aware;
  lcfg.enable_replication = config.enable_replication_template;
  return lcfg;
}

lint::CommBoundConfig comm_config_of(const OptimizerConfig& config) {
  const lint::LintConfig lcfg = lint_config_of(config);
  return {.mem_limit_node_bytes = lcfg.mem_limit_node_bytes,
          .enable_fusion = lcfg.enable_fusion,
          .enable_replication = lcfg.enable_replication};
}

OptimizedPlan optimize(const ContractionTree& tree,
                       const MachineModel& model,
                       const OptimizerConfig& config) {
  const obs::TraceSpan span("optimize", "optimizer");
  const std::uint64_t prover_lb = prove_or_throw(tree, model, config);
  const std::uint64_t comm_lb =
      lint::prove_comm(tree, model.grid(), comm_config_of(config))
          .root_lb_words;
  Search search(tree, model, config);
  OptimizedPlan plan = search.run();
  plan.stats.prover_lb_node_bytes = prover_lb;
  stamp_comm_gap(comm_lb, plan);
  maybe_verify(tree, model, config, plan);
  return plan;
}

std::vector<OptimizedPlan> optimize_frontier(const ContractionTree& tree,
                                             const MachineModel& model,
                                             const OptimizerConfig& config) {
  const obs::TraceSpan span("optimize_frontier", "optimizer");
  const std::uint64_t prover_lb = prove_or_throw(tree, model, config);
  const std::uint64_t comm_lb =
      lint::prove_comm(tree, model.grid(), comm_config_of(config))
          .root_lb_words;
  Search search(tree, model, config);
  std::vector<OptimizedPlan> plans = search.run_frontier();
  for (OptimizedPlan& plan : plans) {
    plan.stats.prover_lb_node_bytes = prover_lb;
    stamp_comm_gap(comm_lb, plan);
    maybe_verify(tree, model, config, plan);
  }
  return plans;
}

}  // namespace tce
