#pragma once
/// \file einsum.hpp
/// Reference tensor algebra: straightforward loop-nest evaluation of
/// contractions, reductions, and whole ContractionTrees.  This is the
/// ground truth the distributed Cannon executor is validated against —
/// clarity over speed.  einsum_pair hands a large covered contraction to
/// the TTGT fast path, ttgt_contract_acc in tce/tensor/ttgt.hpp.

#include <map>
#include <string>

#include "tce/expr/contraction.hpp"
#include "tce/tensor/dense.hpp"

namespace tce {

/// C[result_dims] = Σ_{sum} A · B, matching dimensions by label.  Labels
/// shared by A and B must have equal extents; every result label must
/// appear in A or B; summed labels must not appear in the result.
DenseTensor einsum_pair(const DenseTensor& a, const DenseTensor& b,
                        const std::vector<IndexId>& result_dims,
                        IndexSet sum_indices);

/// C[result_dims] = Σ over A's labels absent from result_dims.
DenseTensor einsum_reduce(const DenseTensor& a,
                          const std::vector<IndexId>& result_dims);

/// Evaluates a whole ContractionTree with concrete inputs keyed by input
/// tensor name; extents are taken from the tree's IndexSpace and each
/// input must match its declared shape.  Returns the root's value.
DenseTensor evaluate_tree(const ContractionTree& tree,
                          const std::map<std::string, DenseTensor>& inputs);

/// Builds a full-extent DenseTensor for a symbolic tensor reference.
DenseTensor make_tensor(const TensorRef& ref, const IndexSpace& space);

/// Builds and randomly fills inputs for every leaf of \p tree.
std::map<std::string, DenseTensor> make_random_inputs(
    const ContractionTree& tree, Rng& rng);

}  // namespace tce
