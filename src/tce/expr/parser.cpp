#include "tce/expr/parser.hpp"

#include <cctype>

#include "tce/common/error.hpp"
#include "tce/common/strings.hpp"

namespace tce {

namespace {

/// Character-level cursor with position tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool at_end() const { return pos_ >= text_.size(); }
  std::size_t pos() const { return pos_; }

  /// Skips spaces and tabs (not newlines — those separate statements).
  void skip_blanks() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  bool consume(char c) {
    skip_blanks();
    if (!at_end() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  /// Consumes an identifier or fails.
  std::string identifier() {
    skip_blanks();
    const std::size_t start = pos_;
    if (!at_end()) {
      char c = text_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
        while (!at_end()) {
          c = text_[pos_];
          if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            ++pos_;
          } else {
            break;
          }
        }
      }
    }
    if (pos_ == start) fail("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Consumes a positive integer or fails.
  std::uint64_t integer() {
    skip_blanks();
    const std::size_t start = pos_;
    std::uint64_t value = 0;
    while (!at_end() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      ++pos_;
    }
    if (pos_ == start) fail("expected integer");
    if (value == 0) fail("index extent must be positive");
    return value;
  }

  /// True if the next token (after blanks) is the given keyword, consuming
  /// it when it matches.
  bool consume_keyword(std::string_view kw) {
    skip_blanks();
    if (text_.substr(pos_, kw.size()) != kw) return false;
    const std::size_t after = pos_ + kw.size();
    if (after < text_.size()) {
      const char c = text_[after];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        return false;  // identifier that merely starts with the keyword
      }
    }
    pos_ = after;
    return true;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, pos_);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses "[a,b,c]" into names; "[]" yields an empty list (scalar).
std::vector<std::string> bracketed_names(Cursor& cur) {
  cur.expect('[');
  std::vector<std::string> names;
  if (cur.consume(']')) return names;
  names.push_back(cur.identifier());
  while (cur.consume(',')) names.push_back(cur.identifier());
  cur.expect(']');
  return names;
}

TensorRef tensor_ref(Cursor& cur, const IndexSpace& space) {
  TensorRef t;
  t.name = cur.identifier();
  for (const auto& n : bracketed_names(cur)) {
    t.dims.push_back(space.id(n));  // throws tce::Error on unknown index
  }
  return t;
}

IndexSet to_index_set(const std::vector<std::string>& names,
                      const IndexSpace& space) {
  IndexSet s;
  for (const auto& n : names) s.insert(space.id(n));
  return s;
}

}  // namespace

ParsedProgram parse_program(std::string_view text) {
  ParsedProgram program;

  // Split into statements on newlines and semicolons, stripping comments.
  std::vector<std::pair<std::string, std::size_t>> lines;  // text, offset
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n' || text[i] == ';') {
      std::string_view raw = text.substr(start, i - start);
      const std::size_t hash = raw.find('#');
      if (hash != std::string_view::npos) raw = raw.substr(0, hash);
      if (!trim(raw).empty()) {
        lines.emplace_back(std::string(raw), start);
      }
      start = i + 1;
    }
  }

  for (const auto& [line, offset] : lines) {
    Cursor cur(line);
    try {
      if (cur.consume_keyword("index")) {
        std::vector<std::string> names;
        names.push_back(cur.identifier());
        while (cur.consume(',')) names.push_back(cur.identifier());
        cur.expect('=');
        const std::uint64_t extent = cur.integer();
        cur.skip_blanks();
        if (!cur.at_end()) cur.fail("trailing characters");
        for (auto& n : names) program.space.add(std::move(n), extent);
        continue;
      }

      ParsedStatement stmt;
      stmt.result = tensor_ref(cur, program.space);
      cur.expect('=');
      if (cur.consume_keyword("sum")) {
        const auto names = bracketed_names(cur);
        if (names.empty()) cur.fail("empty summation index list");
        stmt.sum_indices = to_index_set(names, program.space);
      }
      stmt.factors.push_back(tensor_ref(cur, program.space));
      while (cur.consume('*')) {
        stmt.factors.push_back(tensor_ref(cur, program.space));
      }
      cur.skip_blanks();
      if (!cur.at_end()) cur.fail("trailing characters");
      program.statements.push_back(std::move(stmt));
    } catch (const ParseError& e) {
      // Re-throw with the offset relative to the whole program text.
      throw ParseError(std::string(e.what()).substr(
                           0, std::string(e.what()).rfind(" (at offset")),
                       offset + e.pos());
    }
  }

  if (program.statements.empty()) {
    throw ParseError("program contains no statements", 0);
  }
  return program;
}

Formula to_formula(const ParsedStatement& stmt) {
  if (stmt.factors.size() == 1) {
    if (stmt.sum_indices.empty()) {
      throw Error("statement producing " + stmt.result.name +
                  " is a plain copy; not a formula");
    }
    return Formula::sum(stmt.result, stmt.factors[0], stmt.sum_indices);
  }
  if (stmt.factors.size() == 2) {
    if (stmt.sum_indices.empty()) {
      return Formula::mult(stmt.result, stmt.factors[0], stmt.factors[1]);
    }
    return Formula::contract(stmt.result, stmt.factors[0], stmt.factors[1],
                             stmt.sum_indices);
  }
  throw Error("statement producing " + stmt.result.name + " has " +
              std::to_string(stmt.factors.size()) +
              " factors; binarize it with the operation-minimization "
              "search (tce/opmin) before building a formula sequence");
}

FormulaSequence to_formula_sequence(const ParsedProgram& program,
                                    bool allow_forest) {
  FormulaSequence seq(program.space, {});
  for (const auto& stmt : program.statements) seq.push_back(to_formula(stmt));
  seq.validate(allow_forest);
  return seq;
}

FormulaSequence parse_formula_sequence(std::string_view text) {
  return to_formula_sequence(parse_program(text));
}

}  // namespace tce
