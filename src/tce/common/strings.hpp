#pragma once
/// \file strings.hpp
/// Small string utilities shared by the DSL parser, the characterization
/// file reader and the report printers.

#include <string>
#include <string_view>
#include <vector>

namespace tce {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits \p s on \p sep, trimming each piece; empty pieces are kept so that
/// positional formats stay positional.
std::vector<std::string> split(std::string_view s, char sep);

/// True when \p s consists only of [A-Za-z_][A-Za-z0-9_]* — the lexical
/// shape of index and tensor names in the DSL.
bool is_identifier(std::string_view s);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// printf-style double formatting with a fixed number of decimals.
std::string fixed(double v, int decimals);

}  // namespace tce
