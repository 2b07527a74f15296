#include "tce/lint/comm_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tce/common/checked.hpp"
#include "tce/fusion/fused.hpp"

namespace tce::lint {

namespace {

/// Full logical word count of an array: Π of its dimension extents.
std::uint64_t words_of(const TensorRef& t, const IndexSpace& space) {
  std::uint64_t w = 1;
  for (IndexId i : t.dims) w = checked_mul(w, space.extent(i));
  return w;
}

/// The memory-constrained term at a node whose operands are both input
/// leaves (see the header derivation).  \p mults is the node's
/// multiplication count, \p m_words the per-processor memory budget.
std::uint64_t mem_term(std::uint64_t mults, std::uint64_t procs,
                       std::uint64_t m_words, bool materialized) {
  if (m_words == 0) return 0;  // no budget at all: the memory prover
                               // certifies infeasibility instead.
  const double f = static_cast<double>(mults);
  const double p = static_cast<double>(procs);
  const double m = static_cast<double>(m_words);
  // Pair-counting segment bound: ≤ 4M² multiplications per M received
  // words, regardless of how the result is consumed.
  double best = f / (4.0 * p * m) - m;
  if (materialized) {
    // Surface-to-volume (Loomis–Whitney) form; needs the result
    // footprint bounded per segment, i.e. a materialized result.
    best = std::max(best, f / (4.0 * std::sqrt(2.0) * p * std::sqrt(m)) - m);
  }
  if (best <= 0.0) return 0;
  return static_cast<std::uint64_t>(best);  // floor: words are integral
}

}  // namespace

std::string CommBoundResult::str() const {
  std::string out = "certificate rule=comm.lb-certificate root=" + root +
                    " comm_lb_words=" + std::to_string(root_lb_words) + "\n";
  for (const NodeCommBound& nb : nodes) {
    out += "  node=" + nb.node +
           " lb_words=" + std::to_string(nb.lb_words) +
           " lb_struct_words=" + std::to_string(nb.lb_struct_words) +
           " lb_mem_words=" + std::to_string(nb.lb_mem_words);
    if (nb.limit_dominated) out += " limit-dominated";
    out += "\n";
  }
  return out;
}

CommBoundResult prove_comm(const ContractionTree& tree, const ProcGrid& grid,
                           const CommBoundConfig& cfg) {
  CommBoundResult res;
  const IndexSpace& space = tree.space();
  res.root = tree.node(tree.root()).tensor.name;
  const std::uint64_t procs = grid.procs;
  const std::uint64_t edge = grid.edge;

  for (NodeId id : tree.post_order()) {
    const ContractionNode& n = tree.node(id);
    if (n.kind != ContractionNode::Kind::kContraction) continue;
    NodeCommBound nb;
    nb.node = n.tensor.name;

    if (n.batch_indices.empty()) {
      const std::uint64_t wl = words_of(tree.node(n.left).tensor, space);
      const std::uint64_t wr = words_of(tree.node(n.right).tensor, space);
      const std::uint64_t wc = words_of(n.tensor, space);

      // min over the rotation pairs the index classes admit: rot = k
      // rotates (A, B), rot = i rotates (A, C), rot = j rotates (B, C).
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      const auto rot_pair = [&](std::uint64_t wx, std::uint64_t wy) {
        best = std::min(
            best, checked_mul(edge - 1, checked_add(wx, wy)) / procs);
      };
      if (!n.sum_indices.empty()) rot_pair(wl, wr);
      if (!n.left_indices.empty()) rot_pair(wl, wc);
      if (!n.right_indices.empty()) rot_pair(wr, wc);
      if (cfg.enable_replication) {
        best = std::min(
            best, checked_mul(procs - 1, std::min(wl, wr)) / procs);
      }
      if (best != std::numeric_limits<std::uint64_t>::max()) {
        nb.lb_struct_words = best;
      }

      // Memory-constrained term: only where every operand element must
      // arrive through this node's own collectives (both children are
      // input leaves; an intermediate operand can be produced locally).
      const bool leaf_operands =
          tree.node(n.left).kind == ContractionNode::Kind::kInput &&
          tree.node(n.right).kind == ContractionNode::Kind::kInput;
      if (cfg.mem_limit_node_bytes != 0 && leaf_operands) {
        const std::uint64_t m_words =
            cfg.mem_limit_node_bytes / (8ull * grid.procs_per_node);
        const bool materialized = id == tree.root() ||
                                  !cfg.enable_fusion ||
                                  fusable_indices(tree, id).empty();
        nb.lb_mem_words =
            mem_term(tree.flops(id) / 2, procs, m_words, materialized);
      }
    }

    nb.lb_words = std::max(nb.lb_struct_words, nb.lb_mem_words);
    nb.limit_dominated = nb.lb_mem_words > nb.lb_struct_words;
    res.root_lb_words = checked_add(res.root_lb_words, nb.lb_words);
    res.nodes.push_back(std::move(nb));
  }
  return res;
}

}  // namespace tce::lint
