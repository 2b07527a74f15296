#include "tce/opmin/opmin.hpp"

#include <algorithm>
#include <set>

#include "tce/common/error.hpp"

namespace tce {

namespace {

using Mask = std::uint32_t;

/// Extent product with saturation: flop counts of deliberately bad
/// orders (the naive baseline) can exceed 2^64.
std::uint64_t sat_extent_product(IndexSet s, const IndexSpace& space) {
  std::uint64_t p = 1;
  for (IndexId id : s) p = saturating_mul(p, space.extent(id));
  return p;
}

/// Shared context of one search.
struct Ctx {
  const OpMinInput& input;
  const IndexSpace& space;
  std::vector<IndexSet> fidx;  ///< Index set of each factor.
  IndexSet result_set;
  int n = 0;

  IndexSet union_of(Mask s) const {
    IndexSet u;
    for (int t = 0; t < n; ++t) {
      if (s & (Mask{1} << t)) u = u | fidx[static_cast<std::size_t>(t)];
    }
    return u;
  }

  /// Indices the subtree over \p s must still carry: needed by the final
  /// result or by a factor outside s.
  IndexSet keep(Mask s) const {
    const Mask full = (Mask{1} << n) - 1;
    return union_of(s) & (result_set | union_of(full & ~s));
  }
};

struct Entry {
  std::uint64_t flops = 0;
  std::uint64_t largest = 0;  ///< Largest intermediate in the subtree.
  Mask split = 0;             ///< Left half (0 for singletons).
};

bool better(const Entry& a, const Entry& b) {
  if (a.flops != b.flops) return a.flops < b.flops;
  return a.largest < b.largest;
}

/// Emits formulas for the optimal tree over \p s, returning the tensor
/// holding its value.
TensorRef emit(const Ctx& ctx, const std::vector<Entry>& dp, Mask s,
               std::vector<Formula>& out, int& counter,
               const std::string& prefix,
               const std::set<std::string>& taken) {
  auto fresh_name = [&] {
    std::string name;
    do {
      name = prefix + std::to_string(++counter);
    } while (taken.contains(name));
    return name;
  };
  auto ordered_dims = [&](const TensorRef& a, const TensorRef* b,
                          IndexSet want) {
    std::vector<IndexId> dims;
    IndexSet seen;
    auto push = [&](IndexId d) {
      if (want.contains(d) && !seen.contains(d)) {
        dims.push_back(d);
        seen.insert(d);
      }
    };
    for (IndexId d : a.dims) push(d);
    if (b != nullptr) {
      for (IndexId d : b->dims) push(d);
    }
    return dims;
  };

  const Mask full = (Mask{1} << ctx.n) - 1;
  if (__builtin_popcount(s) == 1) {
    const int t = __builtin_ctz(s);
    const TensorRef& f = ctx.input.factors[static_cast<std::size_t>(t)];
    const IndexSet k = ctx.keep(s);
    if (k == ctx.fidx[static_cast<std::size_t>(t)]) return f;
    // Pre-reduce indices private to this factor.
    TensorRef r;
    r.name = s == full ? ctx.input.result.name : fresh_name();
    r.dims = s == full ? ctx.input.result.dims : ordered_dims(f, nullptr, k);
    out.push_back(
        Formula::sum(r, f, ctx.fidx[static_cast<std::size_t>(t)] - k));
    return r;
  }

  const Entry& e = dp[s];
  const Mask s1 = e.split;
  const Mask s2 = s & ~s1;
  TensorRef left = emit(ctx, dp, s1, out, counter, prefix, taken);
  TensorRef right = emit(ctx, dp, s2, out, counter, prefix, taken);

  const IndexSet k = ctx.keep(s);
  const IndexSet summed = (ctx.keep(s1) | ctx.keep(s2)) - k;
  TensorRef r;
  if (s == full) {
    r = ctx.input.result;
  } else {
    r.name = fresh_name();
    r.dims = ordered_dims(left, &right, k);
  }
  if (summed.empty()) {
    out.push_back(Formula::mult(r, left, right));
  } else {
    out.push_back(Formula::contract(r, left, right, summed));
  }
  return r;
}

}  // namespace

OpMinResult minimize_operations(const OpMinInput& input,
                                const IndexSpace& space,
                                const std::string& temp_prefix) {
  const int n = static_cast<int>(input.factors.size());
  if (n < 1) throw Error("opmin: no factors");
  if (n > 20) throw Error("opmin: more than 20 factors is unsupported");

  Ctx ctx{input, space, {}, input.result.index_set(), n};
  IndexSet all;
  for (const TensorRef& f : input.factors) {
    const IndexSet s = f.index_set();
    if (s.count() != f.dims.size()) {
      throw Error("opmin: factor " + f.str(space) + " repeats an index");
    }
    ctx.fidx.push_back(s);
    all = all | s;
  }
  if (!input.sum_indices.subset_of(all)) {
    throw Error("opmin: summation over indices absent from all factors");
  }
  if (ctx.result_set != all - input.sum_indices) {
    throw Error("opmin: result indices must be the unsummed factor union");
  }

  const Mask full = (Mask{1} << n) - 1;
  OpMinResult out;
  out.naive_flops = saturating_mul(
      static_cast<std::uint64_t>(input.sum_indices.empty() ? n - 1 : n),
      sat_extent_product(all, space));

  if (n == 1) {
    if (input.sum_indices.empty()) {
      throw Error("opmin: single factor with no summation is a plain copy");
    }
    std::vector<Formula> fs;
    fs.push_back(
        Formula::sum(input.result, input.factors[0], input.sum_indices));
    out.flops = sat_extent_product(ctx.fidx[0], space);
    out.sequence = FormulaSequence(space, std::move(fs));
    out.sequence.validate();
    return out;
  }

  // Subset DP.
  std::vector<Entry> dp(static_cast<std::size_t>(full) + 1);
  for (int t = 0; t < n; ++t) {
    const Mask s = Mask{1} << t;
    Entry e;
    const IndexSet k = ctx.keep(s);
    if (k != ctx.fidx[static_cast<std::size_t>(t)]) {
      // Pre-reduction: one add per input element.
      e.flops = sat_extent_product(ctx.fidx[static_cast<std::size_t>(t)], space);
      e.largest = sat_extent_product(k, space);
    }
    dp[s] = e;
  }
  for (Mask s = 1; s <= full; ++s) {
    if (__builtin_popcount(s) < 2) continue;
    Entry best;
    bool have = false;
    // Enumerate splits where s1 contains the lowest set bit (canonical).
    const Mask low = s & (~s + 1);
    for (Mask s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      if (!(s1 & low)) continue;
      if (s1 == s) continue;
      const Mask s2 = s & ~s1;
      const IndexSet loop = ctx.keep(s1) | ctx.keep(s2);
      const std::uint64_t contract_flops =
          saturating_mul(2, sat_extent_product(loop, space));
      Entry e;
      e.flops = saturating_add(saturating_add(dp[s1].flops, dp[s2].flops),
                               contract_flops);
      e.split = s1;
      const std::uint64_t here =
          s == full ? 0 : sat_extent_product(ctx.keep(s), space);
      e.largest = std::max({dp[s1].largest, dp[s2].largest, here});
      if (!have || better(e, best)) {
        best = e;
        have = true;
      }
    }
    TCE_ENSURES(have);
    dp[s] = best;
  }

  out.flops = dp[full].flops;
  out.largest_intermediate = dp[full].largest;

  std::set<std::string> taken;
  taken.insert(input.result.name);
  for (const TensorRef& f : input.factors) taken.insert(f.name);
  std::vector<Formula> formulas;
  int counter = 0;
  emit(ctx, dp, full, formulas, counter, temp_prefix, taken);
  out.sequence = FormulaSequence(space, std::move(formulas));
  out.sequence.validate();
  return out;
}

FormulaSequence binarize_program(const ParsedProgram& program,
                                 const std::string& temp_prefix,
                                 bool allow_forest) {
  std::vector<Formula> formulas;
  int stmt_no = 0;
  for (const ParsedStatement& stmt : program.statements) {
    ++stmt_no;
    if (stmt.factors.size() <= 2) {
      formulas.push_back(to_formula(stmt));
      continue;
    }
    OpMinResult r = minimize_operations(
        OpMinInput::from_statement(stmt), program.space,
        temp_prefix + std::to_string(stmt_no) + "_");
    for (const Formula& f : r.sequence.formulas()) formulas.push_back(f);
  }
  FormulaSequence seq(program.space, std::move(formulas));
  seq.validate(allow_forest);
  return seq;
}

}  // namespace tce
