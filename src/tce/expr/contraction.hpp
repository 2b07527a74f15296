#pragma once
/// \file contraction.hpp
/// Normalized contraction trees.
///
/// §3.1 observes that every tensor contraction is a generalized matrix
/// multiplication C(I,J) += A(I,K) · B(K,J): the result indices split into
/// the set I appearing only in the left operand and J appearing only in
/// the right operand, while the summation indices K appear in both
/// operands.  ContractionTree is the ExprTree with
///   * chains of kSum nodes merged into the kMult below them (the paper's
///     Fig. 2(a) combined form — the unsummed product is accumulated, not
///     materialized), and
///   * each binary node decomposed into (I, J, K) plus a residual "batch"
///     set H of indices shared by both operands *and* the result.  H is
///     empty for true contractions; the Cannon planner rejects nodes with
///     H ≠ ∅ (e.g. the elementwise product in Fig. 1), matching the
///     paper's restriction.
///
/// Terminology from §3.2 carried on each node:
///   * loop_indices  = v.indices — all loops of the node's loop nest
///     (result indices plus summation indices);
///   * dimens        = v.dimens  — the node's *array* dimensions, i.e.
///     loop_indices minus the summation indices.

#include <cstdint>
#include <string>
#include <vector>

#include "tce/expr/tree.hpp"

namespace tce {

/// One node of a ContractionTree.
struct ContractionNode {
  enum class Kind {
    kInput,        ///< Leaf: an input array.
    kContraction,  ///< Binary: C(I,J,H) += A(I,K,H) · B(K,J,H).
    kReduce,       ///< Unary: pure summation with no multiplication below.
  };

  Kind kind = Kind::kInput;
  TensorRef tensor;  ///< Array produced at this node.

  IndexSet sum_indices;    ///< K (kContraction) or the reduce set.
  IndexSet left_indices;   ///< I: in left operand and result only.
  IndexSet right_indices;  ///< J: in right operand and result only.
  IndexSet batch_indices;  ///< H: in both operands and the result.

  NodeId left = kNoNode;
  NodeId right = kNoNode;
  NodeId parent = kNoNode;

  /// v.dimens — the array dimension index set.
  IndexSet dimens() const { return tensor.index_set(); }
  /// v.indices — all loop indices of the node's loop nest.
  IndexSet loop_indices() const { return dimens() | sum_indices; }
};

/// A tree of contraction/reduce nodes over an IndexSpace.
class ContractionTree {
 public:
  /// Normalizes an ExprTree (merging kSum chains into the kMult below).
  static ContractionTree from_expr(const ExprTree& tree);
  /// Convenience: sequence -> ExprTree -> ContractionTree.
  static ContractionTree from_sequence(const FormulaSequence& seq);

  const IndexSpace& space() const noexcept { return space_; }
  NodeId root() const noexcept { return root_; }
  const ContractionNode& node(NodeId id) const {
    TCE_EXPECTS(id >= 0 && id < static_cast<NodeId>(nodes_.size()));
    return nodes_[static_cast<std::size_t>(id)];
  }
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Node ids in post order (children before parents); the root is last.
  std::vector<NodeId> post_order() const;

  /// Leaf node ids in left-to-right order.
  std::vector<NodeId> leaves() const;

  /// Floating point operations executed at node \p id: 2·Π N over the full
  /// loop space for a contraction (multiply + add), Π N over the child's
  /// loop space for a reduce, 0 for an input.
  std::uint64_t flops(NodeId id) const;

  /// Total operation count of the whole tree.
  std::uint64_t total_flops() const;

  /// Sum of unfused, undistributed array sizes in bytes over all non-input
  /// nodes plus all inputs — the paper's "total memory requirement"
  /// (§4 computes ≈65.3 GB for the example this way).
  std::uint64_t total_bytes_unfused() const;

  /// ASCII rendering, one node per line with (I|J|K|H) annotations.
  std::string str() const;

 private:
  IndexSpace space_;
  std::vector<ContractionNode> nodes_;
  NodeId root_ = kNoNode;

  NodeId add_node(ContractionNode n);
  void render(NodeId id, int depth, std::string& out) const;
};

}  // namespace tce
