#pragma once
/// \file formula.hpp
/// Formula sequences — the paper's §2 input language.
///
/// A computation is a list of formulas, each producing one intermediate
/// array; the last produces the final result.  A formula is one of
///   * a multiplication  Tr(...) = X(...) × Y(...)          (kMult),
///   * a summation       Tr(...) = Σ_i X(...)               (kSum), or
///   * a contraction     Tr(...) = Σ_i X(...) × Y(...)      (kContract).
/// §2 formally defines only the first two, but the paper's own Fig. 2(a)
/// writes contractions in the combined kContract form (the product is
/// accumulated, never materialized), and the parallel algorithm of §3
/// operates on such combined nodes; we support all three.
/// Well-formedness: for kMult, ITr = IX ∪ IY; for kSum,
/// ITr = IX − {sum indices}; for kContract, ITr = (IX ∪ IY) − {sum
/// indices} with the sum indices contained in IX ∪ IY.  The paper allows
/// one summation index per kSum formula; we allow a set (a chain of
/// single-index summations collapses to one node with the same
/// semantics).

#include <optional>
#include <string>
#include <vector>

#include "tce/expr/tensor_ref.hpp"

namespace tce {

/// One formula in a sequence.
struct Formula {
  enum class Kind { kMult, kSum, kContract };

  Kind kind = Kind::kMult;
  TensorRef result;
  TensorRef lhs;                 ///< X operand.
  std::optional<TensorRef> rhs;  ///< Y operand; present iff kMult/kContract.
  IndexSet sum_indices;          ///< Summed indices; empty iff kMult.

  /// Builds a multiplication formula.
  static Formula mult(TensorRef result, TensorRef x, TensorRef y);
  /// Builds a summation formula.
  static Formula sum(TensorRef result, TensorRef x, IndexSet indices);
  /// Builds a combined contraction formula.
  static Formula contract(TensorRef result, TensorRef x, TensorRef y,
                          IndexSet indices);

  /// Renders as e.g. "T1[b,c,d,f] = sum{e,l} B[b,e,f,l] * D[c,d,e,l]".
  std::string str(const IndexSpace& space) const;
};

/// An ordered list of formulas with validation and lookup.
///
/// Invariants established by validate():
///  * every formula is well-formed per §2;
///  * result names are unique and distinct from input names;
///  * every operand is either an input or the result of an *earlier*
///    formula;
///  * every intermediate result is consumed exactly once (tree property —
///    the optimization algorithms operate on expression *trees*);
///  * no tensor repeats an index within itself.
class FormulaSequence {
 public:
  FormulaSequence() = default;
  FormulaSequence(IndexSpace space, std::vector<Formula> formulas)
      : space_(std::move(space)), formulas_(std::move(formulas)) {}

  const IndexSpace& space() const noexcept { return space_; }
  const std::vector<Formula>& formulas() const noexcept { return formulas_; }

  /// Appends a formula (validation is deferred to validate()).
  void push_back(Formula f) { formulas_.push_back(std::move(f)); }

  /// Checks all invariants; throws tce::Error with a precise message on
  /// the first violation.  With \p allow_forest, more than one result may
  /// be left unconsumed (a multi-output program — a forest of trees);
  /// the default requires exactly one root, produced by the last formula.
  void validate(bool allow_forest = false) const;

  /// Result names never consumed by a later formula — the program's
  /// outputs (the forest's roots), in production order.
  std::vector<std::string> root_names() const;

  /// Distinct input tensors (operands never produced by a formula), in
  /// first-use order.
  std::vector<TensorRef> inputs() const;

  /// The final result tensor (result of the last formula).
  const TensorRef& output() const;

  /// Multi-line rendering of the whole sequence.
  std::string str() const;

 private:
  IndexSpace space_;
  std::vector<Formula> formulas_;
};

}  // namespace tce
