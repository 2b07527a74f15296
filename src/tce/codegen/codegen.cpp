#include "tce/codegen/codegen.hpp"

#include <map>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/units.hpp"
#include "tce/core/accounting.hpp"
#include "tce/tensor/kernel.hpp"

namespace tce {

namespace {

class Renderer {
 public:
  Renderer(const ContractionTree& tree, const OptimizedPlan& plan,
           std::uint32_t grid_edge)
      : tree_(tree), plan_(plan), space_(tree.space()),
        edge_(grid_edge) {
    for (const PlanStep& s : plan.steps) steps_[s.node] = &s;
    for (const ArrayReport& a : plan.arrays) {
      // Rows are unique by name except duplicated-input leaves, for
      // which any row is representative.
      arrays_[a.full.name] = &a;
    }
  }

  std::string render() {
    out_ += "# " + std::to_string(plan_.procs_per_node) +
            " processors/node; logical grid view of §3.1\n";
    out_ += "# arrays are blocks on each processor; <x,y> = grid "
            "distribution, '·' = replicated\n";
    if (edge_ != 0) {
      out_ += "# local multiplies dispatch per block size: kern=tiled "
              "above " +
              std::to_string(kAutoCutoffElems) +
              " loop elements per rank, kern=ref below\n";
    }
    declare_arrays();
    out_ += "\n";
    render_cluster(tree_.root(), 0);
    return std::move(out_);
  }

 private:
  void line(int indent, const std::string& text) {
    out_.append(static_cast<std::size_t>(indent) * 2, ' ');
    out_ += text;
    out_ += '\n';
  }

  void declare_arrays() {
    for (const ArrayReport& a : plan_.arrays) {
      std::string d;
      if (a.is_input) {
        d = "input  " + a.full.str(space_) + " dist " +
            a.final_dist->str(space_);
      } else {
        d = (a.is_output ? "output " : "local  ") + a.reduced.str(space_);
        if (a.reduced.dims != a.full.dims) {
          d += " (fused from " + a.full.str(space_) + ")";
        }
        d += " dist " + a.initial_dist->str(space_);
      }
      d += "   # " + format_bytes_paper(a.mem_per_node_bytes) + "/node";
      line(0, d);
    }
  }

  /// The loops node \p id is fused over with its parent, read from its
  /// array row so that fused reduce nodes (which have no step) count.
  IndexSet fusion_of(NodeId id) const {
    const ContractionNode& n = tree_.node(id);
    if (n.kind == ContractionNode::Kind::kInput) return IndexSet();
    auto it = arrays_.find(n.tensor.name);
    if (it == arrays_.end()) return IndexSet();
    return it->second->full.index_set() - it->second->reduced.index_set();
  }

  /// Renders the full computation of node \p u: the materialized
  /// intermediates its fused cluster reads, hoisted first, then the
  /// cluster itself.
  void render_cluster(NodeId u, int indent) {
    hoist(u, indent);
    render_fused(u, IndexSet(), indent);
  }

  /// Renders the unfused internal children of every member of \p u's
  /// fused cluster, members in post order.
  void hoist(NodeId u, int indent) {
    const ContractionNode& n = tree_.node(u);
    std::vector<NodeId> fused, materialized;
    for (NodeId c : {n.left, n.right}) {
      if (c == kNoNode) continue;
      if (tree_.node(c).kind == ContractionNode::Kind::kInput) continue;
      (fusion_of(c).empty() ? materialized : fused).push_back(c);
    }
    for (NodeId c : fused) hoist(c, indent);
    for (NodeId c : materialized) render_cluster(c, indent);
  }

  /// Renders \p u inside the loops \p open: its accumulator is zeroed
  /// there, each fused child runs inside \p open plus the child's own
  /// fusion (opening the loops not yet open), and u's line follows once
  /// the loops the children's fused children opened have closed.
  void render_fused(NodeId u, IndexSet open, int indent) {
    line(indent, reduced_name(u) + " = 0");
    const ContractionNode& n = tree_.node(u);
    int body = indent;
    for (NodeId c : {n.left, n.right}) {
      if (c == kNoNode) continue;
      const IndexSet f = fusion_of(c);
      if (f.empty()) continue;
      for (IndexId j : f - open) {
        line(body, "for " + space_.name(j) + " = 0 .. " +
                       std::to_string(space_.extent(j) - 1) + ":");
        ++body;
      }
      open = open | f;
      render_fused(c, open, body);
    }
    emit_contraction(u, body);
  }

  std::string reduced_name(NodeId id) const {
    const ContractionNode& n = tree_.node(id);
    auto it = arrays_.find(n.tensor.name);
    if (it != arrays_.end()) return it->second->reduced.str(space_);
    return n.tensor.str(space_);
  }

  std::string operand_name(NodeId id, IndexSet eff) const {
    // Operand as seen inside the fused loops: fused dims are pinned.
    const ContractionNode& n = tree_.node(id);
    std::string s = n.tensor.name + "[";
    for (std::size_t i = 0; i < n.tensor.dims.size(); ++i) {
      if (i != 0) s += ",";
      const IndexId d = n.tensor.dims[i];
      s += eff.contains(d) ? (space_.name(d) + "=fixed") : space_.name(d);
    }
    s += "]";
    return s;
  }

  /// Kernel-dispatch annotation for step \p s: mirrors the runtime
  /// auto-selection (select_kernel with the default cutoff) on the
  /// per-rank local block shapes.  A loop label's local extent is its
  /// global extent divided by the grid edge when some side of the step
  /// distributes it; fused labels are pinned (extent 1) and skipped.  A
  /// replicated step multiplies each rank's partial block, which splits
  /// only the result labels its stationary operand splits too.
  std::string kernel_note(const ContractionNode& n,
                          const PlanStep& s) const {
    if (edge_ == 0) return "";
    std::uint64_t local = 1;
    auto fold = [&](IndexId l, bool split) {
      std::uint64_t e = space_.extent(l);
      if (split) e = std::max<std::uint64_t>(e / edge_, 1);
      local = saturating_mul(local, e);
    };
    const Distribution result_blocks =
        s.tmpl == StepTemplate::kReplicated
            ? partial_dist(s.replicate_right ? s.left_dist : s.right_dist,
                           s.result_dist)
            : s.result_dist;
    for (IndexId l : n.tensor.dims) {
      if (s.effective_fused.contains(l)) continue;
      fold(l, result_blocks.contains(l));
    }
    for (IndexId l : n.sum_indices) {
      if (s.effective_fused.contains(l)) continue;
      fold(l, s.left_dist.contains(l) || s.right_dist.contains(l));
    }
    const KernelKind k = select_kernel(KernelKind::kAuto, local);
    return std::string(", kern=") +
           (k == KernelKind::kTiled ? "tiled" : "ref");
  }

  void emit_contraction(NodeId id, int indent) {
    const ContractionNode& n = tree_.node(id);
    if (n.kind == ContractionNode::Kind::kReduce) {
      line(indent, reduced_name(id) + " += reduce" +
                       n.sum_indices.str(space_) + " " +
                       operand_name(n.left, fusion_of(id) | fusion_of(n.left)));
      return;
    }
    auto it = steps_.find(id);
    if (it == steps_.end()) {
      throw Error("codegen: plan has no step for node '" + n.tensor.name +
                  "'");
    }
    const PlanStep& s = *it->second;
    if (s.tmpl == StepTemplate::kReplicated) {
      const NodeId repl = s.replicate_right ? n.right : n.left;
      const NodeId stat = s.replicate_right ? n.left : n.right;
      const Distribution& stat_dist =
          s.replicate_right ? s.left_dist : s.right_dist;
      std::string note = "allgather " + tree_.node(repl).tensor.name +
                         " everywhere; " + tree_.node(stat).tensor.name +
                         " stationary " + stat_dist.str(space_);
      if (s.reduce_dim != 0) {
        const bool scatter = s.result_dist.at(s.reduce_dim) != kNoIndex;
        note += std::string(scatter ? "; reduce-scatter" : "; allreduce") +
                " partials along dim " + std::to_string(s.reduce_dim);
      }
      line(indent, "replicated " + reduced_name(id) + " += " +
                       operand_name(n.left, s.effective_fused) + " * " +
                       operand_name(n.right, s.effective_fused) +
                       "   # " + note + " → " +
                       s.result_dist.str(space_) + kernel_note(n, s));
      return;
    }
    std::string rotated;
    auto add_rot = [&](bool rotates, const std::string& name) {
      if (!rotates) return;
      if (!rotated.empty()) rotated += ", ";
      rotated += name;
    };
    add_rot(s.choice.rotates_left(), tree_.node(n.left).tensor.name);
    add_rot(s.choice.rotates_right(), tree_.node(n.right).tensor.name);
    add_rot(s.choice.rotates_result(), n.tensor.name);

    line(indent, "cannon " + reduced_name(id) + " += " +
                     operand_name(n.left, s.effective_fused) + " * " +
                     operand_name(n.right, s.effective_fused) +
                     "   # rot=" + space_.name(s.choice.rot) +
                     ", rotate {" + rotated + "}, dists " +
                     s.left_dist.str(space_) + "·" +
                     s.right_dist.str(space_) + "→" +
                     s.result_dist.str(space_) + kernel_note(n, s));
  }

  const ContractionTree& tree_;
  const OptimizedPlan& plan_;
  const IndexSpace& space_;
  std::uint32_t edge_;  ///< Grid edge for kernel notes; 0 = omit them.
  std::map<NodeId, const PlanStep*> steps_;
  std::map<std::string, const ArrayReport*> arrays_;
  std::string out_;
};

}  // namespace

std::string generate_pseudocode(const ContractionTree& tree,
                                const OptimizedPlan& plan) {
  return Renderer(tree, plan, 0).render();
}

std::string generate_pseudocode(const ContractionTree& tree,
                                const OptimizedPlan& plan,
                                std::uint32_t grid_edge) {
  return Renderer(tree, plan, grid_edge).render();
}

}  // namespace tce
