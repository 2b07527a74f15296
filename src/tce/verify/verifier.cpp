#include "tce/verify/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/strings.hpp"
#include "tce/fusion/fused.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"

namespace tce {

namespace {

/// Everything the verifier re-derives for one tree node, bottom-up.  The
/// fields mirror the optimizer's per-solution accounting exactly (see
/// Sol in optimizer.cpp) so the recomputed totals are comparable to the
/// plan's recorded ones bit for bit.
struct NodeAccount {
  Distribution dist;      ///< Produced (internal) or stored (leaf) layout.
  IndexSet fusion;        ///< Fusion with the parent (∅ for leaves/root).
  double cost = 0;        ///< Subtree communication cost (incl. penalty).
  std::uint64_t mem = 0;  ///< Σ per-processor array bytes, subtree.
  std::uint64_t max_msg = 0;
  std::uint64_t peak = 0;     ///< Peak live intermediate bytes, subtree.
  std::uint64_t working = 0;  ///< Bytes live while the parent executes.
  std::uint64_t input_bytes = 0;
  std::uint64_t words = 0;    ///< Canonical comm words per processor,
                              ///< subtree (saturating, like the search).
};

class PlanVerifier {
 public:
  PlanVerifier(const ContractionTree& tree, const MachineModel& model,
               const OptimizedPlan& plan, const VerifyOptions& opts)
      : tree_(tree),
        model_(model),
        plan_(plan),
        opts_(opts),
        grid_(model.grid()),
        space_(tree.space()) {}

  VerifyReport run() {
    if (!check_structure()) return std::move(report_);
    index_rows();
    for (NodeId id : tree_.post_order()) {
      const ContractionNode& n = tree_.node(id);
      switch (n.kind) {
        case ContractionNode::Kind::kInput:
          break;  // accounted while visiting the consumer
        case ContractionNode::Kind::kContraction:
          check_contraction(id);
          break;
        case ContractionNode::Kind::kReduce:
          check_reduce(id);
          break;
      }
    }
    check_rows();
    check_totals();
    return std::move(report_);
  }

 private:
  // ----------------------------------------------------------- reporting

  void fail(NodeId node, const std::string& rule,
            const std::string& message,
            Severity sev = Severity::kError) {
    obs::count("verify.diagnostics");
    report_.diagnostics.push_back({sev, node, rule, message});
  }

  /// Accounts one evaluated rule, both on the report and (when the
  /// registry is live) on a per-rule-id counter.
  void count_rule(const std::string& id) {
    ++report_.rules_checked;
    if (obs::metrics_enabled()) obs::count("verify.rule." + id);
  }

  /// Evaluates one rule; returns \p ok so callers can chain.
  bool rule(bool ok, NodeId node, const std::string& id,
            const std::string& message) {
    count_rule(id);
    if (!ok) fail(node, id, message);
    return ok;
  }

  bool close(double a, double b) const {
    const double tol =
        opts_.rel_tol * std::max({std::fabs(a), std::fabs(b), 1e-300});
    return std::fabs(a - b) <= std::max(tol, 1e-12);
  }

  /// Checks a recomputed-vs-recorded cost pair under one rule id,
  /// downgrading near misses (within 1%) to warnings.
  void check_cost(NodeId node, const std::string& id, const std::string& what,
                  double recorded, double recomputed) {
    count_rule(id);
    if (close(recorded, recomputed)) return;
    const double big = std::max(std::fabs(recorded), std::fabs(recomputed));
    const bool near = std::fabs(recorded - recomputed) <= 0.01 * big;
    fail(node, id,
         what + ": recorded " + fixed(recorded, 6) + " s, recomputed " +
             fixed(recomputed, 6) + " s",
         near ? Severity::kWarning : Severity::kError);
  }

  std::string node_name(NodeId id) const {
    return tree_.node(id).tensor.name;
  }

  // ----------------------------------------------------------- structure

  /// One PlanStep per contraction node, in the tree's post order, with
  /// matching unique result names.  Returns false when the steps cannot
  /// even be mapped onto the tree (further checks would throw).
  bool check_structure() {
    std::vector<NodeId> want;
    for (NodeId id : tree_.post_order()) {
      if (tree_.node(id).kind == ContractionNode::Kind::kContraction) {
        want.push_back(id);
      }
    }
    std::vector<NodeId> got;
    for (const PlanStep& s : plan_.steps) got.push_back(s.node);
    if (!rule(got == want, kNoNode, "structure.steps",
              "plan has " + std::to_string(got.size()) +
                  " steps but the tree has " + std::to_string(want.size()) +
                  " contraction nodes (or the post-order differs)")) {
      return false;
    }
    std::set<std::string> seen;
    for (const PlanStep& s : plan_.steps) {
      rule(s.result_name == node_name(s.node), s.node,
           "structure.result-name",
           "step result '" + s.result_name + "' does not match node '" +
               node_name(s.node) + "'");
      rule(seen.insert(s.result_name).second, s.node,
           "structure.result-name",
           "duplicate step result name '" + s.result_name + "'");
      step_of_[s.node] = &s;
    }
    return true;
  }

  /// Maps array-table rows to nodes: consumed leaves in tree order, then
  /// internal nodes in post order (the layout extract_plan produces).
  void index_rows() {
    std::vector<NodeId> want;
    for (NodeId id : tree_.leaves()) want.push_back(id);
    for (NodeId id : tree_.post_order()) {
      if (tree_.node(id).kind != ContractionNode::Kind::kInput) {
        want.push_back(id);
      }
    }
    if (!rule(plan_.arrays.size() == want.size(), kNoNode,
              "structure.array-rows",
              "plan has " + std::to_string(plan_.arrays.size()) +
                  " array rows; expected " + std::to_string(want.size()) +
                  " (consumed leaves + internal nodes)")) {
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const ArrayReport& row = plan_.arrays[i];
      const ContractionNode& n = tree_.node(want[i]);
      if (!rule(row.full == n.tensor, want[i], "structure.array-rows",
                "array row " + std::to_string(i) + " is '" + row.full.name +
                    "'; expected '" + n.tensor.name + "'")) {
        continue;
      }
      row_of_[want[i]] = &row;
    }
  }

  const ArrayReport* row(NodeId id) const {
    auto it = row_of_.find(id);
    return it == row_of_.end() ? nullptr : it->second;
  }

  // ------------------------------------------------------------- helpers

  /// Fusion of a child with this node, as recorded in the plan: a
  /// contraction child's step fusion, a reduce child's fusion inferred
  /// from its reduced array row, ∅ for input leaves.
  IndexSet child_fusion(NodeId child) const {
    const ContractionNode& cn = tree_.node(child);
    if (cn.kind == ContractionNode::Kind::kInput) return IndexSet();
    if (auto it = step_of_.find(child); it != step_of_.end()) {
      return it->second->fusion;
    }
    const ArrayReport* r = row(child);
    if (r == nullptr) return IndexSet();
    return cn.tensor.index_set() - r->reduced.index_set();
  }

  /// Produced distribution of a child as recorded in the plan (a leaf has
  /// none; callers handle leaves separately).
  Distribution child_dist(NodeId child) const {
    if (auto it = step_of_.find(child); it != step_of_.end()) {
      return it->second->result_dist;
    }
    const ArrayReport* r = row(child);
    if (r != nullptr && r->initial_dist) return *r->initial_dist;
    return Distribution();
  }

  /// Π of full extents over \p f — the optimizer's repeat_factor: fused
  /// indices are never grid-distributed, so every fused loop contributes
  /// its whole extent to the collective's repetition count.
  double repeat_factor(IndexSet f) const {
    double r = 1.0;
    for (IndexId j : f) r *= static_cast<double>(space_.extent(j));
    return r;
  }

  /// Canonical words of a collective that moves \p words per processor
  /// once per iteration of the fused loops over \p f.
  std::uint64_t looped_words(IndexSet f, std::uint64_t words) const {
    for (IndexId j : f) words = saturating_mul(words, space_.extent(j));
    return words;
  }

  /// The optimizer's compact storage layout for a replicated-side leaf:
  /// split the first (up to) two dimensions.
  Distribution compact_dist(const TensorRef& ref) const {
    const IndexId d1 = !ref.dims.empty() ? ref.dims[0] : kNoIndex;
    const IndexId d2 = ref.dims.size() > 1 ? ref.dims[1] : kNoIndex;
    return Distribution(d1, d2);
  }

  /// The redundant-compute penalty for configurations that leave grid
  /// dimensions unsplit (mirrors Search::duplication_penalty).
  double duplication_penalty(NodeId id, int split_dims) const {
    double dup = 1.0;
    for (int d = std::max(split_dims, 0); d < 2; ++d) {
      dup *= static_cast<double>(grid_.edge);
    }
    if (dup == 1.0) return 0.0;
    const double share = static_cast<double>(tree_.flops(id)) /
                         static_cast<double>(grid_.procs);
    return model_.compute_time(
        static_cast<std::uint64_t>((dup - 1.0) * share));
  }

  /// Accounts one operand edge: fusion legality, distribution agreement,
  /// redistribution cost, and the child-side contributions to the
  /// subtree accounting.  \p consumed is the distribution the step says
  /// it reads the operand in; \p stored overrides the leaf storage layout
  /// (replicated operands are stored compactly, gathered transiently).
  struct Edge {
    NodeAccount acc;   ///< Child subtree account (leaf: storage only).
    double redist_expected = 0;  ///< Recomputed redistribution cost.
  };
  Edge check_operand(NodeId parent, NodeId child, IndexSet parent_fusion,
                     const Distribution& consumed,
                     const Distribution& stored, double recorded_redist,
                     bool any_dist) {
    const ContractionNode& cn = tree_.node(child);
    Edge e;
    if (cn.kind == ContractionNode::Kind::kInput) {
      // Inputs take any initial distribution at zero cost; they stay
      // resident for the whole program.
      leaf_stored_[child] = stored;
      e.acc.dist = stored;
      e.acc.input_bytes =
          dist_bytes(cn.tensor, stored, IndexSet(), space_, grid_);
      e.acc.mem = e.acc.input_bytes;
      rule(recorded_redist == 0.0, parent, "cost.redistribution",
           "input operand '" + cn.tensor.name +
               "' carries a redistribution cost");
      return e;
    }

    e.acc = accounts_.at(child);
    const IndexSet f_c = e.acc.fusion;
    rule(fusion_nesting_ok(parent_fusion, f_c, cn.loop_indices()), parent,
         "fusion.nesting",
         "operand '" + cn.tensor.name + "' fused over " +
             f_c.str(space_) + " violates the no-recomputation rule "
             "against parent fusion " + parent_fusion.str(space_));

    if (any_dist) {
      // Replicated operand: the allgather collects the array from
      // whatever layout it is in; no redistribution is ever paid.
      rule(recorded_redist == 0.0, parent, "cost.redistribution",
           "replicated operand '" + cn.tensor.name +
               "' carries a redistribution cost");
      return e;
    }
    if (e.acc.dist == consumed) {
      rule(recorded_redist == 0.0, parent, "cost.redistribution",
           "operand '" + cn.tensor.name +
               "' is consumed in its produced distribution but carries a "
               "redistribution cost of " + fixed(recorded_redist, 6) +
               " s");
      return e;
    }
    // Distributions differ: only a fully materialized intermediate may be
    // reshuffled, and the fused-range agreement rule (§3.2(iii)) forbids
    // changing a fused operand's layout at all.
    if (!rule(f_c.empty(), parent, "dist.operand-agreement",
              "fused operand '" + cn.tensor.name + "' produced as " +
                  e.acc.dist.str(space_) + " but consumed as " +
                  consumed.str(space_))) {
      return e;
    }
    e.redist_expected = redistribute_cost_of(cn.tensor, e.acc.dist,
                                             consumed);
    check_cost(parent, "cost.redistribution",
               "redistribution of '" + cn.tensor.name + "'",
               recorded_redist, e.redist_expected);
    const std::uint64_t source =
        dist_bytes(cn.tensor, e.acc.dist, IndexSet(), space_, grid_);
    e.acc.max_msg = std::max(e.acc.max_msg, source);
    e.acc.words = saturating_add(e.acc.words, source / 8);
    return e;
  }

  /// The redistribution cost the optimizer charges (see produced_operand
  /// in core/accounting.cpp): producer-side block, hoisted outside fused
  /// loops.
  double redistribute_cost_of(const TensorRef& v, const Distribution& from,
                              const Distribution& to) const {
    if (from == to) return 0.0;
    const std::uint64_t block =
        dist_bytes(v, from, IndexSet(), space_, grid_);
    return model_.redistribute_cost(block);
  }

  /// Folds two operand accounts and the node's own array into the
  /// subtree account, mirroring the optimizer's memory/liveness math.
  NodeAccount combine(const NodeAccount& lo, const NodeAccount& ro,
                      std::uint64_t own_mem, const Distribution& dist,
                      IndexSet fusion) const {
    NodeAccount s;
    s.dist = dist;
    s.fusion = fusion;
    s.mem = checked_add(checked_add(lo.mem, ro.mem), own_mem);
    s.max_msg = std::max(lo.max_msg, ro.max_msg);
    s.input_bytes = checked_add(lo.input_bytes, ro.input_bytes);
    s.words = saturating_add(lo.words, ro.words);
    s.peak = std::max(
        {lo.peak, checked_add(lo.working, ro.peak),
         checked_add(checked_add(lo.working, ro.working), own_mem)});
    s.working = own_mem;
    if (!fusion.empty()) {
      s.working =
          checked_add(s.working, checked_add(lo.working, ro.working));
    }
    return s;
  }

  // ---------------------------------------------------------- contraction

  void check_contraction(NodeId id) {
    const ContractionNode& n = tree_.node(id);
    const PlanStep* sp = step_of_.contains(id) ? step_of_.at(id) : nullptr;
    if (sp == nullptr) return;  // structure.steps already fired
    const PlanStep& s = *sp;

    rule(s.fusion.subset_of(fusable_indices(tree_, id)), id,
         "fusion.subset",
         "fusion " + s.fusion.str(space_) + " is not a subset of the "
             "fusable indices " + fusable_indices(tree_, id).str(space_));

    const IndexSet f_eff_want =
        s.fusion | child_fusion(n.left) | child_fusion(n.right);
    rule(s.effective_fused == f_eff_want, id, "fusion.effective-closure",
         "effective_fused " + s.effective_fused.str(space_) +
             " != fusion ∪ child fusions " + f_eff_want.str(space_));
    const IndexSet f_eff = f_eff_want;  // verify against the *recomputed*
                                        // closure, not the recorded one

    if (s.tmpl == StepTemplate::kCannon) {
      check_cannon_step(id, s, f_eff);
    } else {
      check_replicated_step(id, s, f_eff);
    }
  }

  void check_cannon_step(NodeId id, const PlanStep& s, IndexSet f_eff) {
    const ContractionNode& n = tree_.node(id);
    const CannonChoice& c = s.choice;

    // §3.1: the triplet is drawn from the node's I/J/K sets; the rotation
    // index is one of the assigned members.
    IndexSet triplet;
    bool triplet_ok = true;
    auto pick = [&](IndexId v, IndexSet from, const char* what) {
      if (v == kNoIndex) return;
      if (!from.contains(v)) {
        triplet_ok = false;
        fail(id, "cannon.triplet",
             std::string(what) + " index '" + space_.name(v) +
                 "' is not drawn from " + from.str(space_));
      }
      triplet.insert(v);
    };
    count_rule("cannon.triplet");
    pick(c.i, n.left_indices, "triplet i");
    pick(c.j, n.right_indices, "triplet j");
    pick(c.k, n.sum_indices, "triplet k");
    if (triplet_ok && triplet.empty()) {
      fail(id, "cannon.triplet", "no triplet index assigned");
    }
    rule(c.rot != kNoIndex && (c.rot == c.i || c.rot == c.j || c.rot == c.k),
         id, "cannon.rotation",
         "rotation index is not an assigned triplet member");

    // The recorded distributions must be exactly the ones the triplet
    // and orientation dictate.
    rule(s.result_dist == c.result_dist() && s.left_dist == c.left_dist() &&
             s.right_dist == c.right_dist(),
         id, "cannon.orientation",
         "recorded α/β/γ do not match the triplet's distributions "
         "α=" + c.result_dist().str(space_) +
             " β=" + c.left_dist().str(space_) +
             " γ=" + c.right_dist().str(space_));

    // Fused indices are never grid-distributed (§3.2(iii) reduces to
    // this in the library's search space).
    rule((s.fusion & triplet).empty() &&
             (s.effective_fused &
              (s.result_dist.index_set() | s.left_dist.index_set() |
               s.right_dist.index_set()))
                 .empty(),
         id, "dist.fused-undistributed",
         "a fused index is grid-distributed at this step");

    // Operand edges.
    const TensorRef& lref = tree_.node(n.left).tensor;
    const TensorRef& rref = tree_.node(n.right).tensor;
    Edge le = check_operand(id, n.left, s.fusion, s.left_dist, s.left_dist,
                            s.redist_left_s, /*any_dist=*/false);
    Edge re = check_operand(id, n.right, s.fusion, s.right_dist,
                            s.right_dist, s.redist_right_s,
                            /*any_dist=*/false);

    // Rotation costs, recomputed from the cost model exactly as the
    // optimizer prices them (see optimizer.hpp: the repeat factor spans
    // *all* effective fused loops).  Every rotated block also travels
    // √P − 1 hops per fused trip in the canonical word count.
    const double repeat = repeat_factor(f_eff);
    double rot_left = 0, rot_right = 0, rot_result = 0;
    std::uint64_t msg = std::max(le.acc.max_msg, re.acc.max_msg);
    std::uint64_t words = 0;
    const auto rotate = [&](const TensorRef& v, const Distribution& d,
                            int dim) {
      const std::uint64_t block = dist_bytes(v, d, f_eff, space_, grid_);
      msg = std::max(msg, block);
      words = saturating_add(
          words,
          looped_words(f_eff, saturating_mul(grid_.edge - 1u, block / 8)));
      return repeat * model_.rotate_cost(block, dim);
    };
    if (c.rotates_left()) {
      rot_left = rotate(lref, s.left_dist, c.left_rot_dim());
    }
    if (c.rotates_right()) {
      rot_right = rotate(rref, s.right_dist, c.right_rot_dim());
    }
    if (c.rotates_result()) {
      rot_result = rotate(n.tensor, s.result_dist, c.result_rot_dim());
    }
    check_cost(id, "cost.rotation", "left-operand rotation", s.rot_left_s,
               rot_left);
    check_cost(id, "cost.rotation", "right-operand rotation",
               s.rot_right_s, rot_right);
    check_cost(id, "cost.rotation", "result rotation", s.rot_result_s,
               rot_result);

    // Fold the subtree account.
    const std::uint64_t own_mem =
        dist_bytes(n.tensor, s.result_dist, s.fusion, space_, grid_);
    NodeAccount acc =
        combine(le.acc, re.acc, own_mem, s.result_dist, s.fusion);
    acc.max_msg = std::max(acc.max_msg, msg);
    acc.words = saturating_add(acc.words, words);
    const double dup = duplication_penalty(
        id, static_cast<int>((c.i != kNoIndex) + (c.j != kNoIndex) +
                             (c.k != kNoIndex)) -
                1);
    acc.cost = le.acc.cost + re.acc.cost + le.redist_expected +
               re.redist_expected + rot_left + rot_right + rot_result +
               dup;
    accounts_[id] = acc;
  }

  void check_replicated_step(NodeId id, const PlanStep& s,
                             IndexSet f_eff) {
    const ContractionNode& n = tree_.node(id);
    const NodeId stat_id = s.replicate_right ? n.left : n.right;
    const NodeId repl_id = s.replicate_right ? n.right : n.left;
    const TensorRef& repl_ref = tree_.node(repl_id).tensor;
    const Distribution delta =
        s.replicate_right ? s.left_dist : s.right_dist;
    const Distribution repl_consumed =
        s.replicate_right ? s.right_dist : s.left_dist;
    const IndexSet stat_side =
        s.replicate_right ? n.left_indices : n.right_indices;
    const IndexSet repl_side =
        s.replicate_right ? n.right_indices : n.left_indices;

    // The replicated operand is consumed whole on every rank: ⟨·,·⟩.
    rule(repl_consumed.undistributed(), id, "repl.layout",
         "replicated operand '" + repl_ref.name +
             "' is consumed as " + repl_consumed.str(space_) +
             " instead of replicated ⟨·,·⟩");

    // Recover (s_r, s_k, transposed, j_pick) from the recorded
    // distributions and validate their membership.
    IndexId s_r = kNoIndex, s_k = kNoIndex;
    bool layout_ok = true;
    for (int d : {1, 2}) {
      const IndexId v = delta.at(d);
      if (v == kNoIndex) continue;
      if (n.sum_indices.contains(v)) {
        s_k = v;
      } else if (stat_side.contains(v)) {
        s_r = v;
      } else {
        layout_ok = false;
        fail(id, "repl.layout",
             "stationary distribution " + delta.str(space_) +
                 " names '" + space_.name(v) +
                 "', which is neither a stationary-side nor a summation "
                 "index");
      }
    }
    count_rule("repl.layout");
    bool tr = false;
    if (s_r != kNoIndex) {
      tr = delta.dim_of(s_r) == 2;
    } else if (s_k != kNoIndex) {
      tr = delta.dim_of(s_k) == 1;
    }
    // j_pick: the result-side index of α on the replicated side.
    IndexId j_pick = kNoIndex;
    for (int d : {1, 2}) {
      const IndexId v = s.result_dist.at(d);
      if (v == kNoIndex || v == s_r) continue;
      if (repl_side.contains(v)) {
        j_pick = v;
      } else {
        layout_ok = false;
        fail(id, "repl.layout",
             "result distribution " + s.result_dist.str(space_) +
                 " names '" + space_.name(v) +
                 "', which is neither the stationary split index nor a "
                 "replicated-side index");
      }
    }
    Distribution alpha_want(s_r, j_pick);
    if (tr) alpha_want = alpha_want.transposed();
    rule(layout_ok && s.result_dist == alpha_want, id, "repl.layout",
         "result distribution " + s.result_dist.str(space_) +
             " does not match the stationary/replicated split " +
             alpha_want.str(space_));

    const int reduce_dim_want = delta.dim_of(s_k);
    rule(s.reduce_dim == reduce_dim_want, id, "repl.reduce-dim",
         "reduce_dim " + std::to_string(s.reduce_dim) +
             " does not match the grid dimension of the split summation "
             "index (" + std::to_string(reduce_dim_want) + ")");

    // Fused indices undistributed.
    IndexSet triplet;
    for (IndexId v : {s_r, s_k, j_pick}) {
      if (v != kNoIndex) triplet.insert(v);
    }
    rule((s.fusion & triplet).empty() &&
             (s.effective_fused &
              (delta.index_set() | s.result_dist.index_set()))
                 .empty(),
         id, "dist.fused-undistributed",
         "a fused index is grid-distributed at this replicated step");

    // Operand edges: stationary side needs δ; replicated side is
    // gathered from any layout (stored compactly when it is a leaf).
    Edge se = check_operand(
        id, stat_id, s.fusion, delta, delta,
        s.replicate_right ? s.redist_left_s : s.redist_right_s,
        /*any_dist=*/false);
    Edge re = check_operand(
        id, repl_id, s.fusion, repl_consumed, compact_dist(repl_ref),
        s.replicate_right ? s.redist_right_s : s.redist_left_s,
        /*any_dist=*/true);

    // Allgather of the replicated operand: once per iteration of the
    // fused loops that slice it; each rank receives the s − ⌊s/P⌋ slice
    // words it does not hold.
    const IndexSet f_ag = f_eff & repl_ref.index_set();
    const std::uint64_t slice_total =
        fused_bytes(repl_ref, f_eff, space_);
    const double ag = repeat_factor(f_ag) * model_.allgather_cost(slice_total);
    const std::uint64_t slice_words = slice_total / 8;
    std::uint64_t words =
        looped_words(f_ag, slice_words - slice_words / grid_.procs);

    // Reduce-scatter of the result partials: p − ⌊p/√P⌋ words each.
    const IndexSet f_red = f_eff & n.tensor.index_set();
    Distribution partial(s_r, kNoIndex);
    if (tr) partial = partial.transposed();
    const std::uint64_t partial_bytes =
        dist_bytes(n.tensor, partial, f_red, space_, grid_);
    double rs = 0;
    if (reduce_dim_want != 0) {
      rs = repeat_factor(f_red) *
           model_.reduce_scatter_cost(partial_bytes, reduce_dim_want);
      const std::uint64_t partial_words = partial_bytes / 8;
      std::uint64_t rs_words = looped_words(
          f_red, partial_words - partial_words / grid_.edge);
      if (j_pick == kNoIndex) {  // allreduce: stay replicated
        rs *= 2.0;
        rs_words = saturating_mul(rs_words, 2);
      }
      words = saturating_add(words, rs_words);
    }
    check_cost(id, "cost.rotation", "replicated-operand allgather",
               s.replicate_right ? s.rot_right_s : s.rot_left_s, ag);
    check_cost(id, "cost.rotation", "stationary-operand comm",
               s.replicate_right ? s.rot_left_s : s.rot_right_s, 0.0);
    check_cost(id, "cost.rotation", "partial-sum reduction",
               s.rot_result_s, rs);

    // Transient: gathered slice + oversized partial coexist per rank.
    const std::uint64_t own_block =
        dist_bytes(n.tensor, s.result_dist, f_eff, space_, grid_);
    const std::uint64_t transient = checked_add(
        slice_total,
        partial_bytes > own_block ? partial_bytes - own_block : 0);

    const std::uint64_t own_mem =
        dist_bytes(n.tensor, s.result_dist, s.fusion, space_, grid_);
    NodeAccount acc =
        combine(se.acc, re.acc, own_mem, s.result_dist, s.fusion);
    acc.max_msg = std::max(acc.max_msg, transient);
    acc.words = saturating_add(acc.words, words);
    const double dup = duplication_penalty(
        id, (s_r != kNoIndex ? 1 : 0) + (s_k != kNoIndex ? 1 : 0));
    acc.cost = se.acc.cost + re.acc.cost + se.redist_expected +
               re.redist_expected + ag + rs + dup;
    accounts_[id] = acc;
  }

  // --------------------------------------------------------------- reduce

  /// A reduce node has no PlanStep; its decisions live in its array row
  /// (initial_dist, reduced dims, comm_initial_s).
  void check_reduce(NodeId id) {
    const ContractionNode& n = tree_.node(id);
    const NodeId child = n.left;
    const ContractionNode& cn = tree_.node(child);
    const ArrayReport* r = row(id);
    if (!rule(r != nullptr && r->initial_dist.has_value(), id,
              "reduce.result-dist",
              "reduce node '" + n.tensor.name +
                  "' has no array row with an initial distribution")) {
      accounts_[id] = NodeAccount{};
      return;
    }
    const Distribution rdist = *r->initial_dist;
    const IndexSet f_u = n.tensor.index_set() - r->reduced.index_set();

    rule(f_u.subset_of(fusable_indices(tree_, id)), id, "fusion.subset",
         "fusion " + f_u.str(space_) + " is not a subset of the fusable "
             "indices " + fusable_indices(tree_, id).str(space_));
    rule((f_u & rdist.index_set()).empty(), id, "dist.fused-undistributed",
         "a fused index is grid-distributed at this reduce node");

    // Child: a reduce consumes a fully materialized operand in place.
    NodeAccount co;
    Distribution cdist;
    if (cn.kind == ContractionNode::Kind::kInput) {
      const ArrayReport* cr = row(child);
      cdist = (cr != nullptr && cr->final_dist) ? *cr->final_dist
                                                : Distribution();
      leaf_stored_[child] = cdist;
      co.dist = cdist;
      co.input_bytes =
          dist_bytes(cn.tensor, cdist, IndexSet(), space_, grid_);
      co.mem = co.input_bytes;
    } else {
      co = accounts_.at(child);
      cdist = co.dist;
      rule(co.fusion.empty(), id, "dist.operand-agreement",
           "reduce node '" + n.tensor.name +
               "' consumes a fused (unmaterialized) operand");
    }

    // The result distribution drops exactly the reduced indices from the
    // child's pair and keeps everything else in place.
    auto position = [&](int d) {
      const IndexId i = cdist.at(d);
      return (i != kNoIndex && n.sum_indices.contains(i)) ? kNoIndex : i;
    };
    const Distribution rdist_want(position(1), position(2));
    rule(rdist == rdist_want, id, "reduce.result-dist",
         "reduce-node distribution " + rdist.str(space_) +
             " does not drop exactly the reduced indices from the "
             "operand's " + cdist.str(space_));

    // Partial-sum combination cost (modeled with the redistribution
    // curve; see Search::solve_reduce).
    const bool needs_allreduce = rdist != cdist;
    const std::uint64_t own_mem =
        dist_bytes(n.tensor, rdist, f_u, space_, grid_);
    double comm = 0;
    std::uint64_t msg = co.max_msg;
    std::uint64_t words = 0;
    if (needs_allreduce) {
      comm = repeat_factor(f_u) * model_.redistribute_cost(own_mem);
      msg = std::max(msg, own_mem);
      words = looped_words(f_u, own_mem / 8);
    }
    check_cost(id, "cost.reduce",
               "partial-sum combination at '" + n.tensor.name + "'",
               r->comm_initial_s.value_or(0.0), comm);

    NodeAccount acc;
    acc.dist = rdist;
    acc.fusion = f_u;
    acc.cost = co.cost + comm;
    acc.mem = checked_add(co.mem, own_mem);
    acc.max_msg = msg;
    acc.input_bytes = co.input_bytes;
    acc.words = saturating_add(co.words, words);
    acc.peak = std::max(co.peak, checked_add(co.working, own_mem));
    acc.working = own_mem;
    if (!f_u.empty()) acc.working = checked_add(acc.working, co.working);
    accounts_[id] = acc;
  }

  // ----------------------------------------------------------- array rows

  /// Per-row accounting: the recorded per-node bytes must equal the
  /// recomputed block size of the array in its stored layout, and the
  /// row's distributions must agree with the steps.
  void check_rows() {
    for (const auto& [id, r] : row_of_) {
      const ContractionNode& n = tree_.node(id);
      IndexSet fusion;
      Distribution stored;
      if (n.kind == ContractionNode::Kind::kInput) {
        stored = leaf_stored_.contains(id) ? leaf_stored_.at(id)
                                           : Distribution();
      } else {
        auto it = accounts_.find(id);
        if (it == accounts_.end()) continue;
        fusion = it->second.fusion;
        stored = it->second.dist;
        rule(r->initial_dist.has_value() && *r->initial_dist == stored,
             id, "structure.array-rows",
             "array row for '" + n.tensor.name +
                 "' records initial distribution " +
                 (r->initial_dist ? r->initial_dist->str(space_)
                                  : std::string("(none)")) +
                 "; the plan produces it as " + stored.str(space_));
      }
      rule(r->reduced == fused_ref(n.tensor, fusion), id,
           "structure.array-rows",
           "array row for '" + n.tensor.name +
               "' records a reduced shape inconsistent with its fusion " +
               fusion.str(space_));
      const std::uint64_t want = checked_mul(
          dist_bytes(n.tensor, stored, fusion, space_, grid_),
          grid_.procs_per_node);
      rule(r->mem_per_node_bytes == want, id, "mem.array-row",
           "array row for '" + n.tensor.name + "' records " +
               std::to_string(r->mem_per_node_bytes) +
               " B/node; recomputed " + std::to_string(want) + " B/node");
    }
  }

  // --------------------------------------------------------------- totals

  void check_totals() {
    const NodeId root = tree_.root();
    auto it = accounts_.find(root);
    if (it == accounts_.end()) return;  // structure failure upstream
    const NodeAccount& acc = it->second;

    check_cost(kNoNode, "cost.total", "total communication",
               plan_.total_comm_s, acc.cost);
    // The canonical words are the same total counted in words, so they
    // share the rule (and its single count).
    if (plan_.stats.achieved_comm_words != acc.words) {
      fail(kNoNode, "cost.total",
           "achieved_comm_words is " +
               std::to_string(plan_.stats.achieved_comm_words) +
               "; recomputed " + std::to_string(acc.words));
    }
    check_cost(kNoNode, "cost.compute", "total compute",
               plan_.total_compute_s,
               model_.compute_time(tree_.total_flops() / grid_.procs));

    rule(plan_.array_bytes_per_proc == acc.mem, kNoNode, "mem.array-total",
         "array_bytes_per_proc is " +
             std::to_string(plan_.array_bytes_per_proc) +
             "; recomputed " + std::to_string(acc.mem));
    const std::uint64_t peak_live =
        checked_add(acc.input_bytes, acc.peak);
    rule(plan_.peak_live_bytes_per_proc == peak_live, kNoNode,
         "mem.peak-live",
         "peak_live_bytes_per_proc is " +
             std::to_string(plan_.peak_live_bytes_per_proc) +
             "; recomputed " + std::to_string(peak_live));
    rule(plan_.max_msg_bytes_per_proc == acc.max_msg, kNoNode,
         "mem.max-message",
         "max_msg_bytes_per_proc is " +
             std::to_string(plan_.max_msg_bytes_per_proc) +
             "; recomputed " + std::to_string(acc.max_msg));

    if (opts_.mem_limit_node_bytes != 0) {
      const std::uint64_t metric =
          plan_.liveness_aware ? peak_live : acc.mem;
      const std::uint64_t per_node = checked_mul(
          checked_add(metric, acc.max_msg), grid_.procs_per_node);
      rule(per_node <= opts_.mem_limit_node_bytes, kNoNode, "mem.limit",
           "plan needs " + std::to_string(per_node) +
               " B/node; the limit is " +
               std::to_string(opts_.mem_limit_node_bytes) + " B/node");
    }
  }

  const ContractionTree& tree_;
  const MachineModel& model_;
  const OptimizedPlan& plan_;
  const VerifyOptions& opts_;
  const ProcGrid& grid_;
  const IndexSpace& space_;

  VerifyReport report_;
  std::map<NodeId, const PlanStep*> step_of_;
  std::map<NodeId, const ArrayReport*> row_of_;
  std::map<NodeId, NodeAccount> accounts_;
  std::map<NodeId, Distribution> leaf_stored_;
};

}  // namespace

std::string VerifyReport::str(const ContractionTree& tree) const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.severity == Severity::kError ? "error" : "warning";
    if (d.node != kNoNode) {
      out += " node=" + tree.node(d.node).tensor.name;
    }
    out += " rule=" + d.rule + ": " + d.message + "\n";
  }
  out += std::to_string(rules_checked) + " rules checked, " +
         std::to_string(diagnostics.size()) + " diagnostic" +
         (diagnostics.size() == 1 ? "" : "s") + "\n";
  return out;
}

VerifyReport verify_plan(const ContractionTree& tree,
                         const MachineModel& model,
                         const OptimizedPlan& plan,
                         const VerifyOptions& opts) {
  const obs::TraceSpan span("verify", "verify");
  obs::count("verify.runs");
  PlanVerifier verifier(tree, model, plan, opts);
  VerifyReport report = verifier.run();
  if (!report.ok() && obs::log_enabled(obs::LogLevel::kError)) {
    obs::log_event(obs::LogLevel::kError, "verify", "plan.failed",
                   json::ObjectWriter()
                       .field("diagnostics", report.diagnostics.size())
                       .field("rules_checked", report.rules_checked)
                       .str());
  }
  return report;
}

bool verify_plans_enabled() {
  const char* v = std::getenv("TCE_VERIFY_PLANS");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

}  // namespace tce
