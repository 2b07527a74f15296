#pragma once
/// \file forest.hpp
/// Multi-output programs: a *forest* of contraction trees.
///
/// Real coupled-cluster computations produce many result tensors (the
/// singles/doubles residuals, energy pieces, ...).  The paper optimizes
/// one expression tree; this extension splits a multi-output formula
/// sequence into its trees (every intermediate still has exactly one
/// consumer, so the split is unique) so that the forest optimizer in
/// tce/core/forest.hpp can plan them jointly under a shared memory
/// limit.

#include "tce/expr/contraction.hpp"

namespace tce {

/// A forest of contraction trees over one shared IndexSpace.
struct ContractionForest {
  IndexSpace space;
  /// One tree per program output, in production order of their roots.
  std::vector<ContractionTree> trees;

  /// Builds the trees of a (possibly multi-output) formula sequence.
  /// Validates once, with the forest rule; a single-root sequence yields a
  /// one-tree forest.
  static ContractionForest from_sequence(const FormulaSequence& seq);

  /// Total operation count across all trees.
  std::uint64_t total_flops() const {
    std::uint64_t total = 0;
    for (const auto& t : trees) total = checked_add(total, t.total_flops());
    return total;
  }
};

}  // namespace tce
