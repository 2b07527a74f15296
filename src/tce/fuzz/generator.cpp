#include "tce/fuzz/generator.hpp"

#include <algorithm>
#include <cmath>

#include "tce/common/assert.hpp"
#include "tce/expr/parser.hpp"

namespace tce::fuzz {

namespace {

/// Index names: a, b, ..., z, a1, b1, ...
std::string index_name(std::size_t i) {
  std::string name(1, static_cast<char>('a' + i % 26));
  if (i >= 26) name += std::to_string(i / 26);
  return name;
}

std::string render_dims(const std::vector<std::string>& dims) {
  std::string out = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i != 0) out += ",";
    out += dims[i];
  }
  return out + "]";
}

/// Mutable generation state: the index pool plus naming counters.
struct Gen {
  Rng& rng;
  FuzzInstance& inst;
  const GenOptions& opts;
  std::uint32_t edge;
  std::size_t inputs = 0;
  std::size_t temps = 0;

  std::uint64_t sample_extent() {
    if (opts.exec_friendly) {
      // The executor requires extents divisible by the grid edge.
      return edge * static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    }
    static constexpr std::uint64_t kExtents[] = {1, 2, 3, 4, 6, 8, 12, 16};
    return kExtents[rng.uniform_int(0, 7)];
  }

  std::string new_index() {
    const std::string name = index_name(inst.indices.size());
    inst.indices.emplace_back(name, sample_extent());
    return name;
  }

  std::vector<std::string> new_indices(int n) {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) v.push_back(new_index());
    return v;
  }

  std::string new_input() {
    std::string name = "X";
    name += std::to_string(inputs++);
    return name;
  }
  std::string new_temp() {
    std::string name = "T";
    name += std::to_string(++temps);
    return name;
  }

  std::vector<std::string> concat(std::vector<std::string> a,
                                  const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    std::shuffle(a.begin(), a.end(), rng.engine());
    return a;
  }

  /// Random nonempty subset of \p pool with at most \p max_size members.
  std::vector<std::string> pick_subset(const std::vector<std::string>& pool,
                                       std::size_t max_size) {
    TCE_EXPECTS(!pool.empty());
    std::vector<std::string> shuffled = pool;
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(std::min(max_size, shuffled.size()))));
    shuffled.resize(n);
    return shuffled;
  }

  /// A fresh 2-leaf contraction over brand-new indices; returns the
  /// statement (already appended).
  const FuzzStmt& fresh_contraction() {
    int ni = static_cast<int>(rng.uniform_int(0, 2));
    int nj = static_cast<int>(rng.uniform_int(0, 2));
    const int nk = static_cast<int>(rng.uniform_int(1, 2));
    if (opts.exec_friendly) {
      // Full Cannon triplets need a pick from each of I, J and K.
      ni = std::max(ni, 1);
      nj = std::max(nj, 1);
    } else if (ni == 0 && nj == 0) {
      ni = 1;  // avoid scalar results mid-chain
    }
    const auto I = new_indices(ni);
    const auto J = new_indices(nj);
    const auto K = new_indices(nk);
    FuzzStmt s;
    s.result = new_temp();
    s.result_dims = concat(I, J);
    s.sum_dims = K;
    s.left = new_input();
    s.left_dims = concat(I, K);
    s.right = new_input();
    s.right_dims = concat(K, J);
    inst.stmts.push_back(std::move(s));
    return inst.stmts.back();
  }

  /// Contracts the running intermediate with a fresh input.  Fails
  /// (returns false) when the chain value has too few dimensions.
  bool extend_chain() {
    const FuzzStmt& prev = inst.stmts.back();
    const std::vector<std::string>& d = prev.result_dims;
    const std::size_t min_dims = opts.exec_friendly ? 2 : 1;
    if (d.size() < min_dims) return false;
    // Sum over a subset of the chain dims; exec-friendly keeps at least
    // one unsummed (the contraction's I side must be nonempty).
    const std::size_t max_k =
        opts.exec_friendly ? d.size() - 1 : d.size();
    const auto K = pick_subset(d, std::min<std::size_t>(max_k, 2));
    std::vector<std::string> I;
    for (const std::string& n : d) {
      if (std::find(K.begin(), K.end(), n) == K.end()) I.push_back(n);
    }
    const int min_j = opts.exec_friendly ? 1 : 0;
    const auto J = new_indices(static_cast<int>(rng.uniform_int(min_j, 2)));
    FuzzStmt s;
    s.result = new_temp();
    s.result_dims = concat(I, J);
    s.sum_dims = K;
    s.left = prev.result;
    s.left_dims = prev.result_dims;
    s.right = new_input();
    s.right_dims = concat(K, J);
    inst.stmts.push_back(std::move(s));
    return true;
  }

  /// Reduces a subset of the chain value's dimensions (kReduce node).
  /// \p is_last allows reducing to a scalar.
  bool reduce_chain(bool is_last) {
    const FuzzStmt& prev = inst.stmts.back();
    const std::vector<std::string>& d = prev.result_dims;
    if (d.empty() || (!is_last && d.size() < 2)) return false;
    const std::size_t max_s = is_last ? d.size() : d.size() - 1;
    const auto S = pick_subset(d, max_s);
    FuzzStmt s;
    s.result = new_temp();
    for (const std::string& n : d) {
      if (std::find(S.begin(), S.end(), n) == S.end()) {
        s.result_dims.push_back(n);
      }
    }
    s.sum_dims = S;
    s.left = prev.result;
    s.left_dims = prev.result_dims;
    inst.stmts.push_back(std::move(s));
    return true;
  }

  /// Generates an independent side contraction whose result overlaps the
  /// chain value, then joins the two (two statements).
  bool join_side() {
    const FuzzStmt chain = inst.stmts.back();
    const std::vector<std::string>& d = chain.result_dims;
    if (d.size() < (opts.exec_friendly ? 2u : 1u)) return false;
    // Shared dims become the join's summation set; exec-friendly leaves
    // at least one chain dim unsummed.
    const std::size_t max_shared =
        opts.exec_friendly ? d.size() - 1 : d.size();
    const auto shared = pick_subset(d, std::min<std::size_t>(max_shared, 2));

    // Side result = shared ∪ J_side (fresh); the side contraction splits
    // its result dims into left-only and right-only halves.
    const int min_side_j = opts.exec_friendly ? 1 : 0;
    const auto j_side =
        new_indices(static_cast<int>(rng.uniform_int(min_side_j, 1)));
    std::vector<std::string> side_dims = shared;
    side_dims.insert(side_dims.end(), j_side.begin(), j_side.end());
    std::shuffle(side_dims.begin(), side_dims.end(), rng.engine());
    std::size_t split =
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(side_dims.size())));
    if (opts.exec_friendly) {
      // Both halves nonempty so the side contraction has a full triplet.
      if (side_dims.size() < 2) return false;
      split = std::max<std::size_t>(
          1, std::min(split, side_dims.size() - 1));
    }
    const std::vector<std::string> I_s(side_dims.begin(),
                                       side_dims.begin() +
                                           static_cast<std::ptrdiff_t>(split));
    const std::vector<std::string> J_s(
        side_dims.begin() + static_cast<std::ptrdiff_t>(split),
        side_dims.end());
    const auto K_s = new_indices(static_cast<int>(rng.uniform_int(1, 2)));

    FuzzStmt side;
    side.result = new_temp();
    side.result_dims = side_dims;
    side.sum_dims = K_s;
    side.left = new_input();
    side.left_dims = concat(I_s, K_s);
    side.right = new_input();
    side.right_dims = concat(K_s, J_s);
    inst.stmts.push_back(side);

    FuzzStmt join;
    join.result = new_temp();
    for (const std::string& n : d) {
      if (std::find(shared.begin(), shared.end(), n) == shared.end()) {
        join.result_dims.push_back(n);
      }
    }
    join.result_dims.insert(join.result_dims.end(), j_side.begin(),
                            j_side.end());
    join.sum_dims = shared;
    join.left = chain.result;
    join.left_dims = chain.result_dims;
    join.right = side.result;
    join.right_dims = side.result_dims;
    inst.stmts.push_back(std::move(join));
    return true;
  }
};

}  // namespace

std::string FuzzInstance::program() const {
  std::string out;
  for (const auto& [name, extent] : indices) {
    out += "index " + name + " = " + std::to_string(extent) + "\n";
  }
  for (const FuzzStmt& s : stmts) {
    out += s.result + render_dims(s.result_dims) + " = sum" +
           render_dims(s.sum_dims) + " " + s.left + render_dims(s.left_dims);
    if (!s.is_reduce()) {
      out += " * " + s.right + render_dims(s.right_dims);
    }
    out += "\n";
  }
  return out;
}

std::string FuzzInstance::describe() const {
  std::string out = "seed=" + std::to_string(seed) +
                    " procs=" + std::to_string(procs) +
                    " per-node=" + std::to_string(procs_per_node) +
                    " mem-limit=" + std::to_string(mem_limit_node_bytes);
  out += characterized ? " model=characterized" : " model=analytic";
  if (!enable_fusion) out += " no-fusion";
  if (!enable_redistribution) out += " no-redistribution";
  if (replication) out += " replication";
  if (liveness) out += " liveness";
  return out;
}

FuzzInstance generate_instance(std::uint64_t seed, const GenOptions& opts) {
  Rng rng(seed);
  FuzzInstance inst;
  inst.seed = seed;

  // Grid: perfect-square processor counts with 1 or 2 procs per node.
  static constexpr std::uint32_t kProcs[] = {1, 4, 4, 16};
  inst.procs = opts.exec_friendly
                   ? (rng.uniform_int(0, 3) == 0 ? 16u : 4u)
                   : kProcs[rng.uniform_int(0, 3)];
  inst.procs_per_node =
      inst.procs == 1 ? 1 : (rng.uniform_int(0, 2) == 0 ? 1 : 2);
  const auto edge =
      static_cast<std::uint32_t>(std::lround(std::sqrt(inst.procs)));

  // Cost model: characterized itanium for a third of multi-proc
  // instances (enables the simnet oracle), randomized analytic model
  // otherwise.
  inst.characterized = inst.procs > 1 && rng.uniform_int(0, 2) == 0;
  // The characterized machine is the simulated itanium cluster, which
  // is specified as 2 processors per node.
  if (inst.characterized) inst.procs_per_node = 2;
  inst.step_latency_s = std::pow(10.0, rng.uniform_real(-3.0, -1.0));
  inst.proc_bw = std::pow(10.0, rng.uniform_real(6.5, 9.0));

  inst.enable_fusion = rng.uniform_int(0, 9) != 0;
  inst.enable_redistribution = rng.uniform_int(0, 9) != 0;
  inst.replication = rng.uniform_int(0, 3) == 0;
  inst.liveness = rng.uniform_int(0, 3) == 0;

  Gen g{rng, inst, opts, edge, 0, 0};
  const int target =
      static_cast<int>(rng.uniform_int(1, std::max(1, opts.max_nodes)));
  g.fresh_contraction();
  while (static_cast<int>(inst.stmts.size()) < target) {
    const int remaining = target - static_cast<int>(inst.stmts.size());
    const std::int64_t roll = rng.uniform_int(0, 99);
    bool ok = false;
    if (roll < 20 && remaining >= 2) {
      ok = g.join_side();
    } else if (roll < 35) {
      ok = g.reduce_chain(remaining == 1);
    }
    if (!ok) ok = g.extend_chain();
    if (!ok) break;  // chain value too small to grow further
  }

  // Memory limit: unlimited for a third of instances; otherwise a
  // log-uniform factor of what the *unconstrained* optimum actually
  // uses, so limits are meaningfully tight (forcing fusion and
  // higher-cost low-memory plans) yet only occasionally infeasible.
  if (rng.uniform_int(0, 2) != 0) {
    const ContractionTree tree = build_tree(inst);
    const AnalyticModel model = analytic_model_of(inst);
    const OptimizedPlan plan = optimize(tree, model, config_of(inst));
    const std::uint64_t metric = inst.liveness
                                     ? plan.peak_live_bytes_per_proc
                                     : plan.array_bytes_per_proc;
    const double per_node =
        static_cast<double>(
            checked_add(metric, plan.max_msg_bytes_per_proc)) *
        static_cast<double>(inst.procs_per_node);
    const double factor = std::pow(10.0, rng.uniform_real(-0.3, 0.8));
    inst.mem_limit_node_bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(per_node * factor));
  }
  return inst;
}

ContractionTree build_tree(const FuzzInstance& inst) {
  return ContractionTree::from_sequence(
      parse_formula_sequence(inst.program()));
}

OptimizerConfig config_of(const FuzzInstance& inst, unsigned threads) {
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = inst.mem_limit_node_bytes;
  cfg.enable_fusion = inst.enable_fusion;
  cfg.enable_redistribution = inst.enable_redistribution;
  cfg.enable_replication_template = inst.replication;
  cfg.liveness_aware = inst.liveness;
  cfg.threads = threads;
  return cfg;
}

AnalyticModel analytic_model_of(const FuzzInstance& inst) {
  AnalyticParams params;
  params.step_latency_s = inst.step_latency_s;
  params.proc_bw = inst.proc_bw;
  return AnalyticModel(ProcGrid::make(inst.procs, inst.procs_per_node),
                       params);
}

std::string corrupt_text(const std::string& text, Rng& rng) {
  static constexpr char kChars[] =
      "abcxyzij01[]=*,+.#; \n\t\"\\-";
  std::string out = text;
  const char c = kChars[rng.uniform_int(
      0, static_cast<std::int64_t>(sizeof kChars) - 2)];
  const auto pos = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(out.size())));
  switch (rng.uniform_int(0, 2)) {
    case 0:  // replace
      if (!out.empty()) {
        out[std::min(pos, out.size() - 1)] = c;
        break;
      }
      [[fallthrough]];
    case 1:  // insert
      out.insert(pos, 1, c);
      break;
    default:  // delete
      if (!out.empty()) out.erase(std::min(pos, out.size() - 1), 1);
      break;
  }
  return out;
}

}  // namespace tce::fuzz
