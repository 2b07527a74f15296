#include "tce/fuzz/brute.hpp"

#include <set>
#include <tuple>

#include "tce/dist/cannon_space.hpp"
#include "tce/fusion/fused.hpp"

namespace tce::fuzz {

namespace {

class Brute {
  using DedupKey =
      std::tuple<Distribution, std::uint64_t, double, std::uint64_t,
                 std::uint64_t, std::uint64_t, std::uint64_t,
                 std::uint64_t, std::uint64_t>;
  using Dedup = std::set<DedupKey>;

 public:
  Brute(const ContractionTree& tree, const MachineModel& model,
        const OptimizerConfig& cfg, std::size_t cap)
      : tree_(tree),
        model_(model),
        cfg_(cfg),
        cap_(cap),
        geom_(tree.space(), model.grid()) {}

  BruteResult run() {
    sols_.assign(tree_.size(), {});
    for (NodeId id : tree_.post_order()) {
      const ContractionNode& n = tree_.node(id);
      switch (n.kind) {
        case ContractionNode::Kind::kInput:
          break;
        case ContractionNode::Kind::kContraction:
          solve_contraction(id);
          break;
        case ContractionNode::Kind::kReduce:
          solve_reduce(id);
          break;
      }
      if (over_cap_) return {.root = {}, .skipped = true};
    }
    BruteResult out;
    for (const BruteSol& s :
         sols_[static_cast<std::size_t>(tree_.root())]) {
      if (fits(s.fp, cfg_, model_.grid())) out.root.push_back(s);
    }
    return out;
  }

 private:
  /// All ways of getting child \p child in layout \p to under the
  /// consumer's \p triplet.
  std::vector<Delivered> operands(NodeId child, const Distribution& to,
                                  IndexSet triplet, bool any_layout) {
    const ContractionNode& cn = tree_.node(child);
    if (cn.kind == ContractionNode::Kind::kInput) {
      return {leaf_operand(geom_, cn.tensor, to)};
    }
    std::vector<Delivered> out;
    for (const BruteSol& s : sols_[static_cast<std::size_t>(child)]) {
      if (!(s.fusion & triplet).empty()) continue;
      if (auto d = produced_operand(model_, geom_, cfg_, cn.tensor, s.fp,
                                    s.dist, s.fusion, to, any_layout)) {
        out.push_back(*d);
      }
    }
    return out;
  }

  /// Appends \p s unless an identical solution is already recorded.
  void keep(std::vector<BruteSol>& sols, Dedup& seen, BruteSol s) {
    const Footprint& fp = s.fp;
    const auto key =
        std::make_tuple(s.dist, s.fusion.bits(), fp.cost, fp.mem,
                        fp.max_msg, fp.peak, fp.working, fp.input_bytes,
                        fp.comm_words);
    if (!seen.insert(key).second) return;
    sols.push_back(std::move(s));
    if (sols.size() > cap_) over_cap_ = true;
  }

  /// Keeps every (fused set, first operand, second operand) combination
  /// of one step layout; \p comm_of prices the step's collectives for
  /// the effective fused set.
  template <typename CommOf>
  void combine(NodeId id, const Distribution& alpha, IndexSet triplet,
               double dup, NodeId first_id,
               const std::vector<Delivered>& firsts, NodeId second_id,
               const std::vector<Delivered>& seconds, CommOf&& comm_of,
               std::vector<BruteSol>& sols, Dedup& seen) {
    if (over_cap_) return;
    const ContractionNode& n = tree_.node(id);
    const IndexSet first_loops = tree_.node(first_id).loop_indices();
    const IndexSet second_loops = tree_.node(second_id).loop_indices();
    for (IndexSet f_u : fusion_candidates(tree_, cfg_, id)) {
      if (!(f_u & triplet).empty()) continue;
      const std::uint64_t own_mem = geom_.bytes(n.tensor, alpha, f_u);
      for (const Delivered& a : firsts) {
        if (!fusion_nesting_ok(f_u, a.fusion, first_loops)) continue;
        for (const Delivered& b : seconds) {
          if (!fusion_nesting_ok(f_u, b.fusion, second_loops)) continue;
          const IndexSet f_eff = f_u | a.fusion | b.fusion;
          keep(sols, seen,
               {alpha, f_u,
                roll_up(a, b, comm_of(f_eff), dup, own_mem, !f_u.empty())});
          if (over_cap_) return;
        }
      }
    }
  }

  void solve_contraction(NodeId id) {
    const ContractionNode& n = tree_.node(id);
    const TensorRef& lref = tree_.node(n.left).tensor;
    const TensorRef& rref = tree_.node(n.right).tensor;
    std::vector<BruteSol> sols;
    Dedup seen;

    for (const CannonChoice& c : enumerate_cannon_choices(n)) {
      const IndexSet triplet = triplet_of(c);
      combine(id, c.result_dist(), triplet,
              duplication_s(model_, tree_.flops(id),
                            static_cast<int>(triplet.count()) - 1),
              n.left, operands(n.left, c.left_dist(), triplet, false),
              n.right, operands(n.right, c.right_dist(), triplet, false),
              [&](IndexSet f_eff) {
                return price(model_, cannon_collectives(geom_, c, lref, rref,
                                                        n.tensor, f_eff));
              },
              sols, seen);
    }
    if (cfg_.enable_replication_template) {
      for (const ReplUnit& u : repl_units(n)) {
        const NodeId stat_id = u.repl_right ? n.left : n.right;
        const NodeId repl_id = u.repl_right ? n.right : n.left;
        const TensorRef& gathered = tree_.node(repl_id).tensor;
        const double dup =
            duplication_s(model_, tree_.flops(id), u.split_dims());
        for (IndexId j_pick :
             with_none(u.repl_right ? n.right_indices : n.left_indices)) {
          const ReplStep st = repl_step(u, j_pick);
          combine(id, st.result, st.triplet, dup, stat_id,
                  operands(stat_id, st.stationary, st.triplet, false),
                  repl_id,
                  operands(repl_id, compact_dist(gathered), st.triplet,
                           true),
                  [&](IndexSet f_eff) {
                    return price(model_, replicated_collectives(
                        geom_, st, gathered, n.tensor, f_eff));
                  },
                  sols, seen);
        }
      }
    }
    sols_[static_cast<std::size_t>(id)] = std::move(sols);
  }

  void solve_reduce(NodeId id) {
    const ContractionNode& n = tree_.node(id);
    const ContractionNode& cn = tree_.node(n.left);
    std::vector<BruteSol> sols;
    Dedup seen;

    // Child options: every distribution of a leaf, or the child's own
    // fully materialized (unfused) solutions.
    std::vector<BruteSol> copts;
    if (cn.kind == ContractionNode::Kind::kInput) {
      for (const Distribution& d : enumerate_distributions(cn.tensor)) {
        copts.push_back({d, IndexSet(), leaf_operand(geom_, cn.tensor, d).fp});
      }
    } else {
      for (const BruteSol& s : sols_[static_cast<std::size_t>(n.left)]) {
        if (s.fusion.empty()) copts.push_back(s);
      }
    }

    for (const BruteSol& co : copts) {
      const Distribution rdist = reduce_dist(co.dist, n.sum_indices);
      Delivered child;
      child.fp = co.fp;
      for (IndexSet f_u : fusion_candidates(tree_, cfg_, id)) {
        if (!(f_u & rdist.index_set()).empty()) continue;
        const StepComm comm =
            reduce_comm(model_, geom_, n.tensor, co.dist, rdist, f_u);
        keep(sols, seen,
             {rdist, f_u,
              roll_up(child, Delivered(), comm, 0.0,
                      geom_.bytes(n.tensor, rdist, f_u), !f_u.empty())});
        if (over_cap_) return;
      }
    }
    sols_[static_cast<std::size_t>(id)] = std::move(sols);
  }

  const ContractionTree& tree_;
  const MachineModel& model_;
  const OptimizerConfig& cfg_;
  const std::size_t cap_;
  GeomCache geom_;
  bool over_cap_ = false;
  std::vector<std::vector<BruteSol>> sols_;
};

}  // namespace

BruteResult brute_force(const ContractionTree& tree,
                        const MachineModel& model,
                        const OptimizerConfig& cfg, std::size_t cap) {
  return Brute(tree, model, cfg, cap).run();
}

}  // namespace tce::fuzz
