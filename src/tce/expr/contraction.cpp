#include "tce/expr/contraction.hpp"

#include <string_view>
#include <unordered_map>

#include "tce/common/error.hpp"

namespace tce {

NodeId ContractionTree::add_node(ContractionNode n) {
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

namespace {

/// Fills the (I, J, K, H) decomposition of a binary node from its operand
/// index sets; throws on inconsistency.
void decompose(ContractionNode& n, IndexSet left_set, IndexSet right_set,
               const IndexSpace& space) {
  const IndexSet result = n.tensor.index_set();
  const IndexSet shared = left_set & right_set;
  if (!n.sum_indices.subset_of(shared)) {
    throw Error("summation indices " + n.sum_indices.str(space) +
                " of " + n.tensor.str(space) +
                " must appear in both operands");
  }
  n.left_indices = (left_set - right_set) & result;
  n.right_indices = (right_set - left_set) & result;
  n.batch_indices = shared & result;
  const IndexSet covered =
      n.left_indices | n.right_indices | n.batch_indices;
  if (covered != result) {
    throw Error("result indices of " + n.tensor.str(space) +
                " not covered by operands");
  }
  // Shared indices must be either summed or kept (batch); anything else
  // (a shared index that vanishes without summation) is ill-formed and
  // already rejected by FormulaSequence::validate().
  TCE_ENSURES((shared - n.sum_indices) == n.batch_indices);
}

}  // namespace

ContractionTree ContractionTree::from_sequence(const FormulaSequence& seq) {
  seq.validate();
  return std::move(trees_of(seq).front());
}

std::vector<ContractionTree> ContractionTree::trees_of(
    const FormulaSequence& seq) {
  // Operands name only earlier results (the sequence is validated), so
  // one pass links every operand to its producer.
  const std::vector<Formula>& formulas = seq.formulas();
  std::unordered_map<std::string_view, std::size_t> by_name;
  Producers producers(formulas.size(), {kNoFormula, kNoFormula});
  std::vector<bool> consumed(formulas.size(), false);
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    const Formula& f = formulas[i];
    for (std::size_t k = 0; k < (f.rhs ? 2u : 1u); ++k) {
      auto it = by_name.find(k == 0 ? f.lhs.name : f.rhs->name);
      if (it == by_name.end()) continue;
      producers[i][k] = it->second;
      consumed[it->second] = true;
    }
    by_name.emplace(f.result.name, i);
  }
  std::vector<ContractionTree> trees;
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    if (!consumed[i]) trees.push_back(build(seq, producers, i));
  }
  TCE_ENSURES(!trees.empty());
  return trees;
}

ContractionTree ContractionTree::build(const FormulaSequence& seq,
                                       const Producers& producers,
                                       std::size_t root) {
  ContractionTree out;
  out.space_ = seq.space();
  // Iterative post-order walk from the root formula: a frame expands its
  // formula's operands left to right, then adds the formula's node, so
  // every node id is its post-order position.
  struct Frame {
    std::size_t formula;
    std::array<NodeId, 2> operands{kNoNode, kNoNode};
    std::size_t done = 0;
  };
  std::vector<Frame> stack{{root}};
  NodeId finished = kNoNode;
  while (true) {
    Frame& fr = stack.back();
    const Formula& f = seq.formulas()[fr.formula];
    if (finished != kNoNode) fr.operands[fr.done++] = finished;
    finished = kNoNode;
    if (fr.done < (f.rhs ? 2u : 1u)) {
      const std::size_t p = producers[fr.formula][fr.done];
      if (p != kNoFormula) {
        stack.push_back({p});
      } else {
        ContractionNode leaf;
        leaf.tensor = fr.done == 0 ? f.lhs : *f.rhs;
        fr.operands[fr.done++] = out.add_node(std::move(leaf));
      }
      continue;
    }
    finished = out.add_formula(f, fr.operands);
    stack.pop_back();
    if (stack.empty()) break;
  }
  out.root_ = finished;
  return out;
}

NodeId ContractionTree::add_formula(const Formula& f,
                                    std::array<NodeId, 2> operands) {
  if (f.kind != Formula::Kind::kSum) {
    ContractionNode n;
    n.kind = ContractionNode::Kind::kContraction;
    n.tensor = f.result;
    n.sum_indices = f.sum_indices;  // empty for a multiplication
    n.left = operands[0];
    n.right = operands[1];
    decompose(n, at(n.left).tensor.index_set(),
              at(n.right).tensor.index_set(), space_);
    const NodeId id = add_node(std::move(n));
    at(operands[0]).parent = id;
    at(operands[1]).parent = id;
    return id;
  }

  // Summations commute, so a chain of sums above a multiplication can be
  // re-associated freely: every summed index shared by both operands of
  // the multiplication folds into the contraction's K (the product is
  // accumulated, never materialized); the remaining indices stay in (at
  // most one) kReduce node above it.
  const NodeId m = operands[0];
  const bool m_is_reduce = at(m).kind == ContractionNode::Kind::kReduce;
  ContractionNode& cn = at(m_is_reduce ? at(m).left : m);
  IndexSet rest = f.sum_indices;
  if (cn.kind == ContractionNode::Kind::kContraction) {
    const IndexSet ls = at(cn.left).tensor.index_set();
    const IndexSet rs = at(cn.right).tensor.index_set();
    const IndexSet fold = rest & ls & rs;
    if (!fold.empty()) {
      rest = rest - fold;
      cn.sum_indices = cn.sum_indices | fold;
      // Shrink the contraction's result array by the folded dims.
      TensorRef shrunk;
      shrunk.name = cn.tensor.name;
      for (IndexId d : cn.tensor.dims) {
        if (!fold.contains(d)) shrunk.dims.push_back(d);
      }
      cn.tensor = std::move(shrunk);
      decompose(cn, ls, rs, space_);
    }
  }

  if (m_is_reduce) {
    at(m).sum_indices = at(m).sum_indices | rest;
    at(m).tensor = f.result;
    return m;
  }
  if (rest.empty()) {
    at(m).tensor = f.result;
    return m;
  }
  ContractionNode n;
  n.kind = ContractionNode::Kind::kReduce;
  n.tensor = f.result;
  n.sum_indices = rest;
  n.left = m;
  const NodeId id = add_node(std::move(n));
  at(m).parent = id;
  return id;
}

std::vector<NodeId> ContractionTree::post_order() const {
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<std::pair<NodeId, bool>> stack;
  stack.emplace_back(root_, false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (id == kNoNode) continue;
    if (expanded) {
      order.push_back(id);
      continue;
    }
    stack.emplace_back(id, true);
    const ContractionNode& n = node(id);
    stack.emplace_back(n.right, false);
    stack.emplace_back(n.left, false);
  }
  TCE_ENSURES(order.size() == nodes_.size());
  return order;
}

std::vector<NodeId> ContractionTree::leaves() const {
  std::vector<NodeId> out;
  for (NodeId id : post_order()) {
    if (node(id).kind == ContractionNode::Kind::kInput) out.push_back(id);
  }
  return out;
}

std::uint64_t ContractionTree::flops(NodeId id) const {
  const ContractionNode& n = node(id);
  switch (n.kind) {
    case ContractionNode::Kind::kInput:
      return 0;
    case ContractionNode::Kind::kContraction:
      return checked_mul(2, n.loop_indices().extent_product(space_));
    case ContractionNode::Kind::kReduce:
      return node(n.left).tensor.index_set().extent_product(space_);
  }
  TCE_UNREACHABLE("bad node kind");
}

std::uint64_t ContractionTree::total_flops() const {
  std::uint64_t total = 0;
  for (NodeId id : post_order()) total = checked_add(total, flops(id));
  return total;
}

std::uint64_t ContractionTree::total_bytes_unfused() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    total = checked_add(total, tensor_bytes(n.tensor, space_));
  }
  return total;
}

void ContractionTree::render(NodeId id, int depth, std::string& out) const {
  const ContractionNode& n = node(id);
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  switch (n.kind) {
    case ContractionNode::Kind::kInput:
      out += "input " + n.tensor.str(space_);
      break;
    case ContractionNode::Kind::kContraction:
      out += "contract " + n.tensor.str(space_) + "  I=" +
             n.left_indices.str(space_) + " J=" +
             n.right_indices.str(space_) + " K=" +
             n.sum_indices.str(space_);
      if (!n.batch_indices.empty()) {
        out += " H=" + n.batch_indices.str(space_);
      }
      break;
    case ContractionNode::Kind::kReduce:
      out += "reduce" + n.sum_indices.str(space_) + " " +
             n.tensor.str(space_);
      break;
  }
  out += '\n';
  if (n.left != kNoNode) render(n.left, depth + 1, out);
  if (n.right != kNoNode) render(n.right, depth + 1, out);
}

std::string ContractionTree::str() const {
  std::string out;
  render(root_, 0, out);
  return out;
}

}  // namespace tce
