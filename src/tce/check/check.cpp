/// \file check.cpp
/// tce-check orchestration: tree loading, rule dispatch, suppression,
/// deterministic ordering, and text/JSON rendering.

#include "tce/check/check.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "tce/check/internal.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"

namespace tce::check {

namespace internal {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::vector<std::string> list_files(const std::string& root,
                                    const std::string& dir,
                                    const std::vector<std::string>& exts) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  const fs::path base = fs::path(root) / dir;
  if (!fs::is_directory(base, ec)) return out;
  for (fs::recursive_directory_iterator it(base, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    const std::string ext = p.extension().string();
    bool wanted = false;
    for (const std::string& e : exts) {
      if (ext == e) wanted = true;
    }
    if (!wanted) continue;
    // Root-relative, '/'-separated (generic_string) so findings look
    // the same on every platform and in every checkout.
    const std::string rel =
        fs::relative(p, fs::path(root), ec).generic_string();
    if (!ec) out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Tree load_tree(const std::string& root) {
  Tree tree;
  tree.root = root;
  std::vector<std::string> sources;
  for (const char* dir : {"src", "tools", "bench"}) {
    for (std::string& rel : list_files(root, dir, {".cpp", ".hpp", ".h"})) {
      sources.push_back(std::move(rel));
    }
  }
  std::sort(sources.begin(), sources.end());
  for (const std::string& rel : sources) {
    std::string text;
    if (!read_file(root + "/" + rel, text)) continue;
    tree.sources.push_back(lex_cpp(rel, text));
  }
  std::vector<std::string> docs = list_files(root, "docs", {".md"});
  {
    std::string readme;
    if (read_file(root + "/README.md", readme)) {
      tree.docs.emplace_back("README.md", std::move(readme));
    }
  }
  for (const std::string& rel : docs) {
    std::string text;
    if (read_file(root + "/" + rel, text)) {
      tree.docs.emplace_back(rel, std::move(text));
    }
  }
  std::sort(tree.docs.begin(), tree.docs.end());
  for (const std::string& rel :
       list_files(root, "tests", {".cpp", ".hpp", ".tce"})) {
    std::string text;
    if (read_file(root + "/" + rel, text)) {
      tree.tests.emplace_back(rel, std::move(text));
    }
  }
  std::sort(tree.tests.begin(), tree.tests.end());
  return tree;
}

}  // namespace internal

namespace {

/// Applies `tce-check: allow(<rule>)` comments: a directive on line L
/// suppresses matching findings on L and L+1.
std::uint64_t apply_suppressions(const internal::Tree& tree,
                                 std::vector<Finding>& findings) {
  std::uint64_t suppressed = 0;
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    const SourceFile* file = nullptr;
    for (const SourceFile& s : tree.sources) {
      if (s.path == f.file) file = &s;
    }
    bool allow = false;
    if (file != nullptr && f.line > 0) {
      for (int line : {f.line, f.line - 1}) {
        const auto it = file->allows.find(line);
        if (it == file->allows.end()) continue;
        for (const std::string& rule : it->second) {
          if (rule == f.rule) allow = true;
        }
      }
    }
    if (allow) {
      ++suppressed;
    } else {
      kept.push_back(std::move(f));
    }
  }
  findings = std::move(kept);
  return suppressed;
}

}  // namespace

std::string CheckReport::str() const {
  std::string out;
  for (const Finding& f : findings) {
    out += (f.severity == Severity::kError) ? "error " : "warning ";
    out += f.file;
    if (f.line > 0) {
      out += ':';
      out += std::to_string(f.line);
    }
    out += " rule=" + f.rule + ": " + f.message + "\n";
  }
  std::uint64_t errors = 0;
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) ++errors;
  }
  out += "tce-check: " + std::to_string(errors) + " error(s), " +
         std::to_string(findings.size() - errors) + " warning(s), " +
         std::to_string(suppressed) + " suppressed; scanned " +
         std::to_string(files_scanned) + " source file(s), " +
         std::to_string(docs_scanned) + " doc(s), " +
         std::to_string(rules_checked) + " rule evaluation(s)\n";
  return out;
}

std::string CheckReport::json() const {
  json::ArrayWriter arr;
  for (const Finding& f : findings) {
    json::ObjectWriter o;
    o.field("severity",
            (f.severity == Severity::kError) ? "error" : "warning")
        .field("file", f.file)
        .field("line", f.line)
        .field("rule", f.rule)
        .field("message", f.message);
    arr.element(o.str());
  }
  json::ObjectWriter out;
  out.field("schema", "tce-check/1")
      .field("ok", ok())
      .raw("findings", arr.str())
      .field("files_scanned", files_scanned)
      .field("docs_scanned", docs_scanned)
      .field("suppressed", suppressed)
      .field("rules_checked", rules_checked);
  return out.str() + "\n";
}

CheckReport run_checks(const CheckConfig& cfg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(fs::path(cfg.root) / "src", ec)) {
    throw Error("tce-check: " + cfg.root +
                " does not look like a repository root (no src/ directory)");
  }
  internal::Tree tree = internal::load_tree(cfg.root);
  CheckReport rep;
  rep.files_scanned = tree.sources.size();
  rep.docs_scanned = tree.docs.size();
  internal::run_source_rules(tree, rep.findings, rep.rules_checked);
  internal::run_registry_rules(tree, rep.findings, rep.rules_checked);
  if (cfg.include_hygiene) {
    internal::run_include_hygiene(cfg.root, cfg.cxx, rep.findings,
                                  rep.rules_checked);
  }
  rep.suppressed = apply_suppressions(tree, rep.findings);
  std::sort(rep.findings.begin(), rep.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return rep;
}

}  // namespace tce::check
