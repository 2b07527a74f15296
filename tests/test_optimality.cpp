// Independent brute-force verification of the optimizer: for small trees
// we enumerate EVERY (Cannon choice, fusion, operand-distribution)
// assignment explicitly — composing costs with the public cost
// primitives, but without the DP's solution sets, pruning, or operand
// machinery — and check that optimize() returns exactly the enumerated
// optimum, under both memory models and several limits.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tce/common/error.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/costmodel/rotate_cost.hpp"
#include "tce/expr/parser.hpp"
#include "tce/fusion/fused.hpp"
#include "tce/fuzz/brute.hpp"
#include "tce/lint/comm_bounds.hpp"

namespace tce {
namespace {

/// Explicit cost of executing one contraction node with a concrete
/// choice, a concrete fused set on the node's own edge, and concrete
/// fused sets arriving from the children — including the duplicated-
/// compute penalty for partially assigned triplets.
double node_comm(const ContractionTree& tree, NodeId id,
                 const MachineModel& model, const CannonChoice& c,
                 IndexSet f_own, IndexSet f_left, IndexSet f_right) {
  const IndexSpace& space = tree.space();
  const ContractionNode& n = tree.node(id);
  const IndexSet eff = f_own | f_left | f_right;
  double repeat = 1.0;
  for (IndexId j : eff) repeat *= static_cast<double>(space.extent(j));

  double total = 0;
  // Duplicated compute: an unassigned triplet position leaves a grid
  // dimension idle, multiplying every rank's flops by √P.
  int assigned = 0;
  for (IndexId t : {c.i, c.j, c.k}) assigned += (t != kNoIndex) ? 1 : 0;
  double dup = 1.0;
  for (int d = assigned - 1; d < 2; ++d) {
    dup *= static_cast<double>(model.grid().edge);
  }
  if (dup > 1.0) {
    total += model.compute_time(static_cast<std::uint64_t>(
        (dup - 1.0) * static_cast<double>(tree.flops(id)) /
        model.grid().procs));
  }
  const ProcGrid& grid = model.grid();
  auto rot = [&](const TensorRef& ref, const Distribution& d, int dim) {
    return repeat * model.rotate_cost(
                        dist_bytes(ref, d, eff, space, grid), dim);
  };
  if (c.rotates_left()) {
    total += rot(tree.node(n.left).tensor, c.left_dist(),
                 c.left_rot_dim());
  }
  if (c.rotates_right()) {
    total += rot(tree.node(n.right).tensor, c.right_dist(),
                 c.right_rot_dim());
  }
  if (c.rotates_result()) {
    total += rot(n.tensor, c.result_dist(), c.result_rot_dim());
  }
  return total;
}

/// Brute force over a 2-contraction chain: child node v feeding parent
/// node u (v is u's LEFT child; u's right child and v's children are
/// leaves).  Returns the optimal cost under the given memory limit
/// (paper summed model), or +inf if nothing is feasible.
double brute_force_chain(const ContractionTree& tree,
                         const MachineModel& model,
                         std::uint64_t limit_node) {
  const IndexSpace& space = tree.space();
  const ProcGrid& grid = model.grid();
  const NodeId u = tree.root();
  const ContractionNode& un = tree.node(u);
  const NodeId v = un.left;
  const ContractionNode& vn = tree.node(v);
  TCE_EXPECTS(vn.kind == ContractionNode::Kind::kContraction);

  double best = std::numeric_limits<double>::infinity();
  for (const CannonChoice& cu : enumerate_cannon_choices(un)) {
    IndexSet tu;
    for (IndexId t : {cu.i, cu.j, cu.k}) {
      if (t != kNoIndex) tu.insert(t);
    }
    for (const CannonChoice& cv : enumerate_cannon_choices(vn)) {
      IndexSet tv;
      for (IndexId t : {cv.i, cv.j, cv.k}) {
        if (t != kNoIndex) tv.insert(t);
      }
      for_each_subset(fusable_indices(tree, v), [&](IndexSet fv) {
        // Legality mirrored from the framework's rules.
        if (!(fv & tv).empty() || !(fv & tu).empty()) return;
        const bool dist_match = cv.result_dist() == cu.left_dist();
        double redist = 0;
        if (!dist_match) {
          if (!fv.empty()) return;  // fused child: must match exactly
          redist = redistribute_cost(model, vn.tensor, cv.result_dist(),
                                     cu.left_dist(), IndexSet(), space);
        }

        // Costs: v executes with its own fusion fv; u's collectives sit
        // inside fv too.
        const double cost = node_comm(tree, v, model, cv, fv, IndexSet(),
                                      IndexSet()) +
                            node_comm(tree, u, model, cu, IndexSet(), fv,
                                      IndexSet()) +
                            redist;

        // Memory (summed model): all leaves at their operand dists, v's
        // reduced array, u's result.
        std::uint64_t mem = 0;
        mem += dist_bytes(tree.node(vn.left).tensor, cv.left_dist(),
                          IndexSet(), space, grid);
        mem += dist_bytes(tree.node(vn.right).tensor, cv.right_dist(),
                          IndexSet(), space, grid);
        mem += dist_bytes(tree.node(un.right).tensor, cu.right_dist(),
                          IndexSet(), space, grid);
        mem += dist_bytes(vn.tensor, cv.result_dist(), fv, space, grid);
        mem += dist_bytes(un.tensor, cu.result_dist(), IndexSet(), space,
                          grid);

        // Largest message (send/recv buffer).
        std::uint64_t msg = 0;
        auto note_msg = [&](bool rotates, const TensorRef& ref,
                            const Distribution& d, IndexSet eff) {
          if (rotates) {
            msg = std::max(msg, dist_bytes(ref, d, eff, space, grid));
          }
        };
        note_msg(cv.rotates_left(), tree.node(vn.left).tensor,
                 cv.left_dist(), fv);
        note_msg(cv.rotates_right(), tree.node(vn.right).tensor,
                 cv.right_dist(), fv);
        note_msg(cv.rotates_result(), vn.tensor, cv.result_dist(), fv);
        note_msg(cu.rotates_left(), vn.tensor, cu.left_dist(), fv);
        note_msg(cu.rotates_right(), tree.node(un.right).tensor,
                 cu.right_dist(), fv);
        note_msg(cu.rotates_result(), un.tensor, cu.result_dist(), fv);
        if (!dist_match) {
          msg = std::max(msg, dist_bytes(vn.tensor, cv.result_dist(),
                                         IndexSet(), space, grid));
        }

        if (limit_node != 0 &&
            (mem + msg) * grid.procs_per_node > limit_node) {
          return;
        }
        best = std::min(best, cost);
      });
    }
  }
  return best;
}

struct ChainCase {
  std::uint64_t na, nb, nc, nd, ne;
  std::uint64_t limit_gb;  // 0 = unlimited
};

class BruteForceChain : public ::testing::TestWithParam<ChainCase> {};

TEST_P(BruteForceChain, DpMatchesExhaustiveEnumeration) {
  const ChainCase p = GetParam();
  // V[a,c] = Σ_b A[a,b]·B[b,c]; U[a,e] = Σ_cd V[a,c]·C[c,d,e] — the
  // second contraction has a 2-index K so redistribution and fusion both
  // come into play.
  std::string text;
  text += "index a = " + std::to_string(p.na) + "\n";
  text += "index b = " + std::to_string(p.nb) + "\n";
  text += "index c = " + std::to_string(p.nc) + "\n";
  text += "index d = " + std::to_string(p.nd) + "\n";
  text += "index e = " + std::to_string(p.ne) + "\n";
  text += "V[a,c,d] = sum[b] A[a,b] * B[b,c,d]\n";
  text += "U[a,e] = sum[c,d] V[a,c,d] * C[c,d,e]\n";
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(text));

  AnalyticParams params;
  params.step_latency_s = 0.01;
  params.proc_bw = 50e6;
  AnalyticModel model(ProcGrid::make(16, 2), params);

  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = p.limit_gb * 1'000'000'000ull;

  const double want = brute_force_chain(tree, model,
                                        cfg.mem_limit_node_bytes);
  if (std::isinf(want)) {
    EXPECT_THROW(optimize(tree, model, cfg), InfeasibleError);
    return;
  }
  OptimizedPlan plan = optimize(tree, model, cfg);
  EXPECT_NEAR(plan.total_comm_s, want, 1e-9 * want + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BruteForceChain,
    ::testing::Values(
        ChainCase{256, 256, 256, 64, 256, 0},   // balanced, unlimited
        ChainCase{1024, 64, 512, 32, 1024, 0},  // skewed
        ChainCase{512, 512, 512, 64, 64, 1},    // tight memory
        ChainCase{1024, 128, 1024, 64, 128, 2},
        ChainCase{2048, 32, 2048, 32, 32, 1},   // big intermediate
        ChainCase{64, 2048, 64, 2048, 64, 0},   // big leaves
        ChainCase{512, 512, 512, 64, 64, 100}));  // loose limit

/// Brute force over a 3-contraction chain V → U → W (each node's right
/// child a leaf): exercises *two* fusion edges simultaneously — the
/// nesting rule, compound repeat factors (f_eff = f_u ∪ f_v at the
/// middle node), and exact distribution handover on fused edges.
double brute_force_chain3(const ContractionTree& tree,
                          const MachineModel& model,
                          std::uint64_t limit_node) {
  const IndexSpace& space = tree.space();
  const ProcGrid& grid = model.grid();
  const NodeId w = tree.root();
  const ContractionNode& wn = tree.node(w);
  const NodeId u = wn.left;
  const ContractionNode& un = tree.node(u);
  const NodeId v = un.left;
  const ContractionNode& vn = tree.node(v);

  auto triplet_of = [](const CannonChoice& c) {
    IndexSet t;
    for (IndexId i : {c.i, c.j, c.k}) {
      if (i != kNoIndex) t.insert(i);
    }
    return t;
  };
  auto msg_of = [&](const ContractionNode& n, const CannonChoice& c,
                    const TensorRef& lref, const TensorRef& rref,
                    IndexSet eff) {
    std::uint64_t m = 0;
    if (c.rotates_left()) {
      m = std::max(m, dist_bytes(lref, c.left_dist(), eff, space, grid));
    }
    if (c.rotates_right()) {
      m = std::max(m, dist_bytes(rref, c.right_dist(), eff, space, grid));
    }
    if (c.rotates_result()) {
      m = std::max(m,
                   dist_bytes(n.tensor, c.result_dist(), eff, space, grid));
    }
    return m;
  };

  double best = std::numeric_limits<double>::infinity();
  for (const CannonChoice& cw : enumerate_cannon_choices(wn)) {
    const IndexSet tw = triplet_of(cw);
    for (const CannonChoice& cu : enumerate_cannon_choices(un)) {
      const IndexSet tu = triplet_of(cu);
      for (const CannonChoice& cv : enumerate_cannon_choices(vn)) {
        const IndexSet tv = triplet_of(cv);
        for_each_subset(fusable_indices(tree, v), [&](IndexSet fv) {
          if (!(fv & tv).empty() || !(fv & tu).empty()) return;
          const bool v_match = cv.result_dist() == cu.left_dist();
          if (!fv.empty() && !v_match) return;
          for_each_subset(fusable_indices(tree, u), [&](IndexSet fu) {
            if (!(fu & tu).empty() || !(fu & tw).empty()) return;
            if (!fusion_nesting_ok(fu, fv, vn.loop_indices())) return;
            const bool u_match = cu.result_dist() == cw.left_dist();
            if (!fu.empty() && !u_match) return;

            double cost = 0;
            if (!v_match) {
              cost += redistribute_cost(model, vn.tensor,
                                        cv.result_dist(), cu.left_dist(),
                                        IndexSet(), space);
            }
            if (!u_match) {
              cost += redistribute_cost(model, un.tensor,
                                        cu.result_dist(), cw.left_dist(),
                                        IndexSet(), space);
            }
            // V executes inside fv; U inside fu ∪ fv; W inside fu.
            cost += node_comm(tree, v, model, cv, fv, IndexSet(),
                              IndexSet());
            cost += node_comm(tree, u, model, cu, fu, fv, IndexSet());
            cost += node_comm(tree, w, model, cw, IndexSet(), fu,
                              IndexSet());

            // Memory (summed model): leaves at operand dists, V and U
            // reduced by their fusions, W full.
            std::uint64_t mem = 0;
            mem += dist_bytes(tree.node(vn.left).tensor, cv.left_dist(),
                              IndexSet(), space, grid);
            mem += dist_bytes(tree.node(vn.right).tensor, cv.right_dist(),
                              IndexSet(), space, grid);
            mem += dist_bytes(tree.node(un.right).tensor, cu.right_dist(),
                              IndexSet(), space, grid);
            mem += dist_bytes(tree.node(wn.right).tensor, cw.right_dist(),
                              IndexSet(), space, grid);
            mem += dist_bytes(vn.tensor, cv.result_dist(), fv, space,
                              grid);
            mem += dist_bytes(un.tensor, cu.result_dist(), fu, space,
                              grid);
            mem += dist_bytes(wn.tensor, cw.result_dist(), IndexSet(),
                              space, grid);

            std::uint64_t msg = std::max(
                {msg_of(vn, cv, tree.node(vn.left).tensor,
                        tree.node(vn.right).tensor, fv),
                 msg_of(un, cu, vn.tensor, tree.node(un.right).tensor,
                        fu | fv),
                 msg_of(wn, cw, un.tensor, tree.node(wn.right).tensor,
                        fu)});
            if (!v_match) {
              msg = std::max(msg, dist_bytes(vn.tensor, cv.result_dist(),
                                             IndexSet(), space, grid));
            }
            if (!u_match) {
              msg = std::max(msg, dist_bytes(un.tensor, cu.result_dist(),
                                             IndexSet(), space, grid));
            }

            if (limit_node != 0 &&
                (mem + msg) * grid.procs_per_node > limit_node) {
              return;
            }
            best = std::min(best, cost);
          });
        });
      }
    }
  }
  return best;
}

struct Chain3Case {
  std::uint64_t np, nq, nr, ns, nt;
  std::uint64_t limit_mb;  // 0 = unlimited
};

class BruteForceChain3 : public ::testing::TestWithParam<Chain3Case> {};

TEST_P(BruteForceChain3, DpMatchesExhaustiveEnumeration) {
  const Chain3Case p = GetParam();
  std::string text;
  text += "index p = " + std::to_string(p.np) + "\n";
  text += "index q = " + std::to_string(p.nq) + "\n";
  text += "index r = " + std::to_string(p.nr) + "\n";
  text += "index s = " + std::to_string(p.ns) + "\n";
  text += "index t = " + std::to_string(p.nt) + "\n";
  text += "V[p,r] = sum[q] A[p,q] * B[q,r]\n";
  text += "U[p,s] = sum[r] V[p,r] * C[r,s]\n";
  text += "W[p,t] = sum[s] U[p,s] * E[s,t]\n";
  ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(text));

  AnalyticParams params;
  params.step_latency_s = 0.02;
  params.proc_bw = 20e6;
  AnalyticModel model(ProcGrid::make(4, 2), params);

  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = p.limit_mb * 1'000'000ull;
  const double want =
      brute_force_chain3(tree, model, cfg.mem_limit_node_bytes);
  if (std::isinf(want)) {
    EXPECT_THROW(optimize(tree, model, cfg), InfeasibleError);
    return;
  }
  OptimizedPlan plan = optimize(tree, model, cfg);
  EXPECT_NEAR(plan.total_comm_s, want, 1e-9 * want + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BruteForceChain3,
    ::testing::Values(Chain3Case{512, 512, 512, 512, 512, 0},
                      Chain3Case{1024, 64, 1024, 64, 1024, 0},
                      // Tight limits force fusion through both edges.
                      Chain3Case{512, 512, 512, 512, 512, 3},
                      Chain3Case{1024, 128, 1024, 128, 256, 6},
                      Chain3Case{256, 2048, 256, 2048, 256, 8},
                      Chain3Case{512, 512, 512, 512, 512, 2}));

TEST(BruteForceSingle, AllChoicesEnumeratedByDp) {
  // Single contraction: the DP must equal a direct minimum over all
  // choices.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index i = 512\nindex j = 128\nindex k = 64\n"
                             "C[i,j] = sum[k] A[i,k] * B[k,j]"));
  AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  double want = std::numeric_limits<double>::infinity();
  for (const CannonChoice& c :
       enumerate_cannon_choices(tree.node(tree.root()))) {
    want = std::min(want, node_comm(tree, tree.root(), model, c,
                                    IndexSet(), IndexSet(), IndexSet()));
  }
  OptimizedPlan plan = optimize(tree, model);
  EXPECT_DOUBLE_EQ(plan.total_comm_s, want);
}

// ------------------------------------- communication-bound soundness

TEST(CommBoundSoundness, CertificateHoldsForEveryBruteSolution) {
  // The certified lower bound must sit at or below the canonical word
  // count of EVERY exhaustively enumerated plan — not just the DP's
  // pick — under several limits that force different plan shapes.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index a, b, c, d = 64\n"
                             "T[a,c] = sum[b] X[a,b] * Y[b,c]\n"
                             "S[a,d] = sum[c] T[a,c] * Z[c,d]"));
  const AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  for (const std::uint64_t limit :
       {std::uint64_t{0}, std::uint64_t{4} << 20, std::uint64_t{1} << 17}) {
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = limit;
    lint::CommBoundConfig ccfg;
    ccfg.mem_limit_node_bytes = limit;
    const std::uint64_t lb =
        lint::prove_comm(tree, model.grid(), ccfg).root_lb_words;
    const fuzz::BruteResult br = fuzz::brute_force(tree, model, cfg);
    ASSERT_FALSE(br.skipped);
    for (const fuzz::BruteSol& s : br.root) {
      EXPECT_LE(lb, s.fp.comm_words) << "limit=" << limit;
    }
  }
}

TEST(CommBoundSoundness, StampedStatsMatchIndependentRecomputation) {
  // The optimizer stamps comm_lb_words / achieved_comm_words while it
  // has the search state in hand; both must equal what the public
  // prover and accounting compute from the finished plan alone.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index a, b, c, d = 64\n"
                             "T[a,c] = sum[b] X[a,b] * Y[b,c]\n"
                             "S[a,d] = sum[c] T[a,c] * Z[c,d]"));
  const AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = std::uint64_t{4} << 20;
  const OptimizedPlan plan = optimize(tree, model, cfg);
  lint::CommBoundConfig ccfg;
  ccfg.mem_limit_node_bytes = cfg.mem_limit_node_bytes;
  EXPECT_EQ(plan.stats.comm_lb_words,
            lint::prove_comm(tree, model.grid(), ccfg).root_lb_words);
  EXPECT_EQ(plan.stats.achieved_comm_words,
            lint::plan_comm_words(tree, plan, model.grid()));
  EXPECT_LE(plan.stats.comm_lb_words, plan.stats.achieved_comm_words);
  EXPECT_GT(plan.stats.comm_gap_ratio, 0.0);
}

}  // namespace
}  // namespace tce
