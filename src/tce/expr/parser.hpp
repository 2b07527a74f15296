#pragma once
/// \file parser.hpp
/// A small text format for tensor contraction programs.
///
/// Example (the paper's §4 input):
///
///     index a, b, c, d = 480
///     index e, f = 64
///     index i, j, k, l = 32
///     T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
///     T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
///     S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
///
/// Statements are separated by newlines or ';'.  '#' starts a comment.
/// A statement's right-hand side may have any number of factors; programs
/// where every statement has at most two factors convert directly to a
/// FormulaSequence, while multi-factor statements are the input form of
/// the operation-minimization search (tce/opmin), which binarizes them.

#include <string>
#include <vector>

#include "tce/expr/formula.hpp"

namespace tce {

/// One parsed statement: result = sum[...] factor * factor * ...
struct ParsedStatement {
  TensorRef result;
  IndexSet sum_indices;            ///< Empty when no sum[...] was written.
  std::vector<TensorRef> factors;  ///< At least one.
};

/// A parsed program: declared index space plus statements in order.
struct ParsedProgram {
  IndexSpace space;
  std::vector<ParsedStatement> statements;
};

/// Parses the text format; throws ParseError with an offset on bad input.
ParsedProgram parse_program(std::string_view text);

/// The formula of a one- or two-factor statement; throws tce::Error for a
/// plain copy (one factor, no summation) and for a statement that needs
/// binarization (more than two factors).
Formula to_formula(const ParsedStatement& stmt);

/// Converts a parsed program whose statements all have one or two factors
/// into a validated FormulaSequence; throws tce::Error for statements that
/// need binarization (use tce/opmin for those).  With \p allow_forest the
/// program may produce several outputs (validated with the forest rule).
FormulaSequence to_formula_sequence(const ParsedProgram& program,
                                    bool allow_forest = false);

/// parse + convert + validate in one call — the common entry point.
FormulaSequence parse_formula_sequence(std::string_view text);

}  // namespace tce
