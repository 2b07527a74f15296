#include "tce/expr/forest.hpp"

namespace tce {

ContractionForest ContractionForest::from_sequence(
    const FormulaSequence& seq) {
  seq.validate(/*allow_forest=*/true);
  return ContractionForest{seq.space(), ContractionTree::trees_of(seq)};
}

}  // namespace tce
