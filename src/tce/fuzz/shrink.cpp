#include "tce/fuzz/shrink.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "tce/common/parse.hpp"

namespace tce::fuzz {

namespace {

/// Removes statements not reachable from the final statement's result,
/// then index declarations no surviving statement mentions.
void garbage_collect(FuzzInstance& inst) {
  if (inst.stmts.empty()) return;
  std::set<std::string> needed = {inst.stmts.back().result};
  std::vector<bool> keep(inst.stmts.size(), false);
  for (std::size_t i = inst.stmts.size(); i-- > 0;) {
    const FuzzStmt& s = inst.stmts[i];
    if (!needed.contains(s.result)) continue;
    keep[i] = true;
    needed.insert(s.left);
    if (!s.right.empty()) needed.insert(s.right);
  }
  std::vector<FuzzStmt> kept;
  for (std::size_t i = 0; i < inst.stmts.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(inst.stmts[i]));
  }
  inst.stmts = std::move(kept);

  std::set<std::string> used;
  for (const FuzzStmt& s : inst.stmts) {
    used.insert(s.result_dims.begin(), s.result_dims.end());
    used.insert(s.sum_dims.begin(), s.sum_dims.end());
    used.insert(s.left_dims.begin(), s.left_dims.end());
    used.insert(s.right_dims.begin(), s.right_dims.end());
  }
  std::erase_if(inst.indices,
                [&](const auto& ix) { return !used.contains(ix.first); });
}

bool is_intermediate(const FuzzInstance& inst, const std::string& name) {
  return std::any_of(inst.stmts.begin(), inst.stmts.end(),
                     [&](const FuzzStmt& s) { return s.result == name; });
}

/// All one-step simplification candidates of \p inst, roughly most
/// aggressive first.
std::vector<FuzzInstance> candidates(const FuzzInstance& inst) {
  std::vector<FuzzInstance> out;

  // Drop the final statement (re-rooting on the previous one).
  if (inst.stmts.size() > 1) {
    FuzzInstance c = inst;
    c.stmts.pop_back();
    garbage_collect(c);
    out.push_back(std::move(c));
  }

  // Cut an intermediate operand loose: replace it with a fresh input of
  // the same shape, orphaning (and collecting) the subtree producing it.
  for (std::size_t i = 0; i < inst.stmts.size(); ++i) {
    for (const bool right : {false, true}) {
      const std::string& name =
          right ? inst.stmts[i].right : inst.stmts[i].left;
      if (name.empty() || !is_intermediate(inst, name)) continue;
      FuzzInstance c = inst;
      const std::string fresh = fresh_input_name(c);
      (right ? c.stmts[i].right : c.stmts[i].left) = fresh;
      garbage_collect(c);
      out.push_back(std::move(c));
    }
  }

  // Shrink the grid.
  if (inst.procs > 4) {
    FuzzInstance c = inst;
    c.procs = 4;
    c.procs_per_node = std::min(c.procs_per_node, 2u);
    out.push_back(std::move(c));
  }
  if (inst.procs > 1) {
    FuzzInstance c = inst;
    c.procs = 1;
    c.procs_per_node = 1;
    c.characterized = false;  // nothing to characterize on one rank
    out.push_back(std::move(c));
  }

  // Clear the memory limit and extension flags.
  if (inst.mem_limit_node_bytes != 0) {
    FuzzInstance c = inst;
    c.mem_limit_node_bytes = 0;
    out.push_back(std::move(c));
  }
  for (bool FuzzInstance::*flag :
       {&FuzzInstance::replication, &FuzzInstance::liveness,
        &FuzzInstance::characterized}) {
    if (inst.*flag) {
      FuzzInstance c = inst;
      c.*flag = false;
      out.push_back(std::move(c));
    }
  }

  // Halve extents (down to 1).
  for (std::size_t i = 0; i < inst.indices.size(); ++i) {
    if (inst.indices[i].second <= 1) continue;
    FuzzInstance c = inst;
    c.indices[i].second = std::max<std::uint64_t>(1, c.indices[i].second / 2);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

std::string fresh_input_name(const FuzzInstance& inst) {
  // Generated inputs are X0, X1, ...; continue past the largest
  // checked-parseable suffix, then step over any remaining clash (a
  // non-numeric or overflowing X-name contributes nothing to `next`
  // but still occupies its spelling).
  std::set<std::string> used;
  std::uint64_t next = 0;
  for (const FuzzStmt& s : inst.stmts) {
    used.insert(s.result);
    for (const std::string* n : {&s.left, &s.right}) {
      if (n->empty()) continue;
      used.insert(*n);
      if ((*n)[0] != 'X') continue;
      const std::optional<std::uint64_t> suffix =
          parse_u64(std::string_view(*n).substr(1));
      if (suffix.has_value() && *suffix != UINT64_MAX) {
        next = std::max(next, *suffix + 1);
      }
    }
  }
  const auto input_name = [](std::uint64_t n) {
    std::string name = "X";
    name += std::to_string(n);
    return name;
  };
  while (used.contains(input_name(next))) ++next;
  return input_name(next);
}

FuzzInstance shrink_instance(
    FuzzInstance inst,
    const std::function<bool(const FuzzInstance&)>& still_fails,
    int max_evals) {
  auto fails = [&](const FuzzInstance& c) {
    try {
      return still_fails(c);
    } catch (...) {
      return false;  // a candidate that breaks is not a simplification
    }
  };
  int evals = 0;
  bool improved = true;
  while (improved && evals < max_evals) {
    improved = false;
    for (FuzzInstance& c : candidates(inst)) {
      if (evals >= max_evals) break;
      ++evals;
      if (fails(c)) {
        inst = std::move(c);
        improved = true;
        break;  // restart from the simplified instance
      }
    }
  }
  return inst;
}

}  // namespace tce::fuzz
