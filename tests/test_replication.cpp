// Tests for the replicate–compute–reduce template extension.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "tce/cannon/executor.hpp"
#include "tce/common/error.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;


// ----------------------------------------------------- collective costs

TEST(Collectives, AllgatherScalesWithTotalBytes) {
  // The measured curve is monotone and eventually bandwidth-bound.  It
  // sits *below* the naive analytic bound because recursive-doubling
  // partners at node-multiple distances land intra-node and ride the
  // fast memory path — a genuine topology effect of the simulated
  // machine that real measurements would show too.
  CharacterizedModel m(characterize_itanium(16));
  const double small = m.allgather_cost(1 << 20);
  const double large = m.allgather_cost(64u << 20);
  EXPECT_GT(large, 5 * small);
  AnalyticModel a(ProcGrid::make(16, 2), AnalyticParams{});
  for (std::uint64_t b : {4ull << 20, 64ull << 20, 256ull << 20}) {
    EXPECT_LE(m.allgather_cost(b), a.allgather_cost(b) * 1.1) << b;
    EXPECT_GE(m.allgather_cost(b), a.allgather_cost(b) * 0.3) << b;
  }
}

TEST(Collectives, ReduceScatterCurvesAreSaneBothDims) {
  // The butterfly interacts with the cyclic rank→node layout, so the
  // two grid dimensions legitimately differ (unlike ring rotations,
  // which are symmetric); both curves must still be positive, monotone,
  // and within a small factor of each other.
  CharacterizedModel m(characterize_itanium(16));
  for (int dim : {1, 2}) {
    double prev = 0;
    for (std::uint64_t b :
         {1ull << 18, 1ull << 20, 1ull << 23, 1ull << 26}) {
      const double v = m.reduce_scatter_cost(b, dim);
      EXPECT_GT(v, 0.0);
      EXPECT_GE(v, prev);
      prev = v;
    }
  }
  for (std::uint64_t b : {1ull << 20, 32ull << 20}) {
    const double r1 = m.reduce_scatter_cost(b, 1);
    const double r2 = m.reduce_scatter_cost(b, 2);
    EXPECT_LT(std::max(r1, r2) / std::min(r1, r2), 3.0);
  }
}

TEST(Collectives, V3FileRoundTripsEveryCurve) {
  CharacterizationTable t = characterize_itanium(16);
  CharacterizationTable u =
      CharacterizationTable::load_string(t.save_string());
  CharacterizedModel m(std::move(u));
  CharacterizedModel orig(std::move(t));
  EXPECT_DOUBLE_EQ(m.allgather_cost(5 << 20), orig.allgather_cost(5 << 20));
  EXPECT_DOUBLE_EQ(m.reduce_scatter_cost(5 << 20, 1),
                   orig.reduce_scatter_cost(5 << 20, 1));
}

/// C[a,b] = Σ_k A[a,k] · B[k,b] with every extent 12, which the edges 4
/// and 6 both divide.  B is 144 doubles = 1152 bytes.
struct SmallMatmul {
  IndexSpace space;
  IndexId a, b, k;
  ContractionNode node;
  DenseTensor left, right;
};

SmallMatmul small_matmul() {
  SmallMatmul m;
  m.a = m.space.add("a", 12);
  m.b = m.space.add("b", 12);
  m.k = m.space.add("k", 12);
  m.node.kind = ContractionNode::Kind::kContraction;
  m.node.tensor = TensorRef{"C", {m.a, m.b}};
  m.node.sum_indices = IndexSet::single(m.k);
  m.node.left_indices = IndexSet::single(m.a);
  m.node.right_indices = IndexSet::single(m.b);
  Rng rng(5);
  m.left = make_tensor(TensorRef{"A", {m.a, m.k}}, m.space);
  m.right = make_tensor(TensorRef{"B", {m.k, m.b}}, m.space);
  m.left.fill_random(rng);
  m.right.fill_random(rng);
  return m;
}

/// The unfused replicated plan step for \p node that gathers the right
/// operand when \p repl_right (else the left) and keeps the other on
/// \p stationary.
PlanStep replicated_step(const ContractionNode& node, bool repl_right,
                         Distribution stationary, Distribution result_dist,
                         int reduce_dim) {
  PlanStep step;
  step.result_name = node.tensor.name;
  step.tmpl = StepTemplate::kReplicated;
  step.replicate_right = repl_right;
  (repl_right ? step.left_dist : step.right_dist) = stationary;
  step.result_dist = result_dist;
  step.reduce_dim = reduce_dim;
  return step;
}

/// Replicates B; A stays blocked ⟨a,k⟩ and the partials reduce along
/// grid dimension 2 into ⟨a,b⟩, or A stays ⟨a,·⟩ with no reduction.
PlanStep replicate_b(const SmallMatmul& m, bool reduce) {
  return replicated_step(m.node, true,
                         Distribution(m.a, reduce ? m.k : kNoIndex),
                         Distribution(m.a, reduce ? m.b : kNoIndex),
                         reduce ? 2 : 0);
}

TEST(Collectives, ReplicatedRunsOnASixBySixGrid) {
  // √P = 6 is not a power of two: the allgather is a ring over the 36
  // ranks and the reduce-scatter a ring along each grid line, as
  // characterize() measured them.
  const SmallMatmul m = small_matmul();
  const ProcGrid grid = ProcGrid::make(36, 2);
  Network net(ClusterSpec::itanium2003(grid.nodes()));
  const DenseTensor want =
      einsum_pair(m.left, m.right, m.node.tensor.dims, m.node.sum_indices);
  const std::uint64_t partial_bytes = 12 / 6 * 12 * sizeof(double);
  CharacterizeOptions opts;
  opts.sizes = {partial_bytes, m.right.size() * sizeof(double)};
  const CharacterizationTable t = characterize(net, grid, opts);
  for (bool reduce : {false, true}) {
    const CannonRunResult r = run_step(net, grid, m.space, m.node,
                                       replicate_b(m, reduce), m.left,
                                       m.right);
    EXPECT_LT(want.max_abs_diff(r.result), 1e-11) << reduce;
    const double priced =
        t.allgather.eval(m.right.size() * sizeof(double)) +
        (reduce ? t.reduce_dim2.eval(partial_bytes) : 0.0);
    EXPECT_NEAR(r.timing.comm_s, priced, 1e-12 * priced) << reduce;
  }
}

TEST(Collectives, ExecutorAllgatherIsTheCharacterizedOne) {
  // Without a reduction the executor's communication is the allgather
  // of B alone, which must be the one the table measured for the same
  // bytes: recursive doubling on 16 procs, a ring on 36.
  const SmallMatmul m = small_matmul();
  const std::uint64_t bytes = m.right.size() * sizeof(double);
  for (std::uint32_t procs : {16u, 36u}) {
    const ProcGrid grid = ProcGrid::make(procs, 2);
    Network net(ClusterSpec::itanium2003(grid.nodes()));
    CharacterizeOptions opts;
    opts.sizes = {bytes};
    const CharacterizationTable t = characterize(net, grid, opts);
    const CannonRunResult r = run_step(net, grid, m.space, m.node,
                                       replicate_b(m, false), m.left,
                                       m.right);
    EXPECT_DOUBLE_EQ(r.timing.comm_s, t.allgather.eval(bytes)) << procs;
  }
}

TEST(Collectives, AllreduceReplaysAtItsPrice) {
  // At 4 procs and 30 KB per node, T's step gathers Y and keeps X
  // stationary on <b,d>: the partials are summed along d's grid
  // dimension, and T has no index left to scatter them by, so the
  // reduction is an allreduce, priced as twice a reduce-scatter.  The
  // replay runs the collectives the search priced, so every step
  // replays within 1% of its priced seconds.
  const ContractionTree tree =
      ContractionTree::from_sequence(parse_formula_sequence(
          "index a = 3\nindex b = 16\nindex d = 8\nindex e = 12\n"
          "T[a,b] = sum[d,e] X[d,a,e,b] * Y[d,e]"));
  const ProcGrid grid = ProcGrid::make(4, 2);
  const Network net(ClusterSpec::itanium2003(grid.nodes()));
  const CharacterizedModel model(characterize(net, grid));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 30'000;
  cfg.enable_replication_template = true;
  const OptimizedPlan plan = optimize(tree, model, cfg);

  std::size_t allreduces = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.tmpl == StepTemplate::kReplicated && s.reduce_dim != 0 &&
        s.result_dist.at(s.reduce_dim) == kNoIndex) {
      ++allreduces;
    }
    const ContractionNode& n = tree.node(s.node);
    const double priced = s.rot_left_s + s.rot_right_s + s.rot_result_s;
    const double replayed =
        simulate_step(net, grid, tree.space(), n, s,
                      tree.node(n.left).tensor, tree.node(n.right).tensor)
            .comm_s;
    EXPECT_NEAR(replayed, priced, 0.01 * priced) << s.result_name;
  }
  EXPECT_EQ(allreduces, 1u);
}

// ------------------------------------------------------------ optimizer

TEST(Replication, OffByDefaultKeepsPaperPlans) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 4'000'000'000;
  OptimizedPlan plan = optimize(tree, model, cfg);
  for (const PlanStep& s : plan.steps) {
    EXPECT_EQ(s.tmpl, StepTemplate::kCannon);
  }
}

TEST(Replication, NeverWorseThanCannonOnly) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  for (std::uint64_t limit : {0ull, 4'000'000'000ull}) {
    OptimizerConfig base;
    base.mem_limit_node_bytes = limit;
    OptimizerConfig ext = base;
    ext.enable_replication_template = true;
    EXPECT_LE(optimize(tree, model, ext).total_comm_s,
              optimize(tree, model, base).total_comm_s * (1 + 1e-12));
  }
}

TEST(Replication, BeatsCannonOnTheFusedPaperWorkload) {
  // The paper's Table 2 scenario: the fused T1·C step rotates the huge
  // reduced T1 per f iteration under Cannon; replicating the tiny C
  // slices keeps T1 stationary and cuts total communication by a large
  // factor.
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig base;
  base.mem_limit_node_bytes = 4'000'000'000;
  OptimizerConfig ext = base;
  ext.enable_replication_template = true;
  const double cannon = optimize(tree, model, base).total_comm_s;
  OptimizedPlan plan = optimize(tree, model, ext);
  EXPECT_LT(plan.total_comm_s, 0.5 * cannon);
  // At least one step chose the replicated template.
  bool used = false;
  for (const PlanStep& s : plan.steps) {
    used = used || s.tmpl == StepTemplate::kReplicated;
  }
  EXPECT_TRUE(used);
  // Still within the memory budget.
  EXPECT_LE(plan.bytes_per_node() + plan.buffer_bytes_per_node(),
            base.mem_limit_node_bytes);
}

/// One line per step: the layouts it consumes and produces, and its
/// Cannon choice or its replicated operand and reduce dimension.
std::string decisions(const PlanStep& s, const IndexSpace& space) {
  const auto name = [&](IndexId id) {
    return id == kNoIndex ? std::string("-") : space.name(id);
  };
  std::string out = s.result_name + " " + s.left_dist.str(space) + "*" +
                    s.right_dist.str(space) + "->" +
                    s.result_dist.str(space);
  if (!s.fusion.empty()) out += " fused";
  if (s.tmpl == StepTemplate::kReplicated) {
    return out + " replicate " + (s.replicate_right ? "right" : "left") +
           ", reduce dim " + std::to_string(s.reduce_dim);
  }
  return out + " cannon " + name(s.choice.i) + "," + name(s.choice.j) +
         "," + name(s.choice.k) + (s.choice.transposed ? " transposed" : "") +
         " rot=" + name(s.choice.rot);
}

TEST(Replication, TiedRootSolutionsKeepTheirPick) {
  // Four root solutions tie on cost, memory and largest message here;
  // they differ only in S's layout.  optimize() must return the first
  // in enumeration order, the plan captured when the root still built
  // its whole frontier.
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(64));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.enable_replication_template = true;
  const OptimizedPlan plan = optimize(tree, model, cfg);
  ASSERT_FALSE(plan.stats.nodes.empty());
  EXPECT_EQ(plan.stats.nodes.back().kept, 4u);
  EXPECT_EQ(plan.total_comm_s, 93.849669162388324);
  EXPECT_EQ(plan.array_bytes_per_proc, 1'043'988'480u);
  EXPECT_EQ(plan.max_msg_bytes_per_proc, 458'096'640u);
  std::vector<std::string> steps;
  for (const PlanStep& s : plan.steps) {
    steps.push_back(decisions(s, tree.space()));
  }
  EXPECT_EQ(steps,
            (std::vector<std::string>{
                "T1 <e,b>*<d,e>-><d,b> cannon b,d,e transposed rot=e",
                "T2 <d,b>*<·,·>-><k,b> replicate right, reduce dim 1",
                "S <k,b>*<a,k>-><a,b> cannon b,a,k transposed rot=b"}));
}

TEST(Replication, ReplicatedOperandReportsNoDistribution) {
  // On a skewed single contraction (huge A, tiny x-ish B), the extension
  // should replicate the small operand; its consumed "distribution" is
  // the replicated ⟨·,·⟩.
  ContractionTree tree = ContractionTree::from_sequence(parse_formula_sequence(R"(
    index i = 2048
    index j = 4
    index k = 2048
    C[i,j] = sum[k] A[i,k] * B[k,j]
  )"));
  AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  OptimizerConfig cfg;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, model, cfg);
  ASSERT_EQ(plan.steps.size(), 1u);
  const PlanStep& s = plan.steps[0];
  if (s.tmpl == StepTemplate::kReplicated) {
    EXPECT_TRUE(s.replicate_right);
    EXPECT_TRUE(s.right_dist.undistributed());
    EXPECT_GT(s.rot_right_s, 0.0);  // allgather cost on B
    EXPECT_EQ(s.rot_left_s, 0.0);   // A stationary
  } else {
    // Cannon keeping A fixed is also defensible; it must then rotate the
    // two small arrays.
    EXPECT_EQ(s.rot_left_s, 0.0);
  }
}

// ----------------------------------------------------- numeric executor

TEST(ReplicationExecutor, MatchesReferenceForAllSpecs) {
  // C[i0,i1,j0] = Σ_{k0,k1} A[i0,k0,i1,k1] · B[j0,k0,k1] on a 2x2 grid:
  // every stationary-distribution / reduce-dim / side combination must
  // reproduce the reference einsum.
  IndexSpace space;
  IndexId i0 = space.add("i0", 4), i1 = space.add("i1", 6),
          j0 = space.add("j0", 4), k0 = space.add("k0", 4),
          k1 = space.add("k1", 2);
  ContractionNode node;
  node.kind = ContractionNode::Kind::kContraction;
  node.tensor = TensorRef{"C", {i0, i1, j0}};
  node.sum_indices = IndexSet::of({k0, k1});
  node.left_indices = IndexSet::of({i0, i1});
  node.right_indices = IndexSet::single(j0);

  Rng rng(17);
  DenseTensor a = make_tensor(TensorRef{"A", {i0, k0, i1, k1}}, space);
  DenseTensor b = make_tensor(TensorRef{"B", {j0, k0, k1}}, space);
  a.fill_random(rng);
  b.fill_random(rng);
  DenseTensor want = einsum_pair(a, b, node.tensor.dims,
                                 node.sum_indices);

  const ProcGrid grid = ProcGrid::make(4, 2);
  Network net(ClusterSpec::itanium2003(2));

  int combos = 0;
  for (bool repl_right : {false, true}) {
    // s_r comes from the stationary operand's result-side indices:
    // stationary = left (A) when the right side is replicated, and vice
    // versa.
    const std::vector<IndexId> side =
        repl_right ? std::vector<IndexId>{i0, i1, kNoIndex}
                   : std::vector<IndexId>{j0, kNoIndex};
    for (IndexId s_r : side) {
      for (IndexId s_k : {k0, k1, kNoIndex}) {
        for (bool tr : {false, true}) {
          Distribution delta(s_r, s_k);
          if (tr) delta = delta.transposed();
          const int reduce_dim = delta.dim_of(s_k);
          // Scatter position: pick the first replicated-side result
          // index, or none.
          const IndexId j_pick = repl_right ? j0 : i0;
          Distribution alpha(s_r, reduce_dim != 0 ? j_pick : kNoIndex);
          if (tr) alpha = alpha.transposed();

          CannonRunResult r = run_step(
              net, grid, space, node,
              replicated_step(node, repl_right, delta, alpha, reduce_dim), a,
              b);
          EXPECT_LT(want.max_abs_diff(r.result), 1e-11)
              << "repl_right=" << repl_right << " s_r=" << int(s_r)
              << " s_k=" << int(s_k) << " tr=" << tr;
          EXPECT_GE(r.timing.comm_s, 0.0);
          ++combos;
        }
      }
    }
  }
  EXPECT_GT(combos, 20);
}

TEST(ReplicationExecutor, TimingEqualsThePlanReplayBitwise) {
  // run_step takes its timing from core/simulate's replay, so for every
  // side, stationary split, reduction (a reduce-scatter, an allreduce or
  // none) and orientation on 2×2, 4×4 and 6×6 grids the executor's
  // timing is bit for bit the replay of its unfused plan step, and its
  // compute_s is one rank's share of the flops.
  ContractionTree tree = ContractionTree::from_sequence(
      parse_formula_sequence("index i0, i1, j0, k0, k1 = 12\n"
                             "C[i0,i1,j0] = sum[k0,k1] A[i0,k0,i1,k1] * "
                             "B[j0,k0,k1]"));
  const IndexSpace& space = tree.space();
  const NodeId root = tree.root();
  const ContractionNode& node = tree.node(root);
  const IndexId i0 = space.id("i0"), i1 = space.id("i1"),
                j0 = space.id("j0"), k0 = space.id("k0"),
                k1 = space.id("k1");
  Rng rng(37);
  const auto inputs = make_random_inputs(tree, rng);
  const DenseTensor& a = inputs.at("A");
  const DenseTensor& b = inputs.at("B");

  std::size_t runs = 0;
  for (const std::uint32_t procs : {4u, 16u, 36u}) {
    const ProcGrid grid = ProcGrid::make(procs, 2);
    const Network net(ClusterSpec::itanium2003(grid.nodes()));
    for (const bool repl_right : {false, true}) {
      const std::vector<IndexId> s_rs =
          repl_right ? std::vector<IndexId>{i0, i1, kNoIndex}
                     : std::vector<IndexId>{j0, kNoIndex};
      for (const IndexId s_r : s_rs) {
        for (const IndexId s_k : {k0, k1, kNoIndex}) {
          for (const bool tr : {false, true}) {
            for (const bool scatter : {true, false}) {
              Distribution stationary(s_r, s_k);
              if (tr) stationary = stationary.transposed();
              const int reduce_dim = stationary.dim_of(s_k);
              if (reduce_dim == 0 && !scatter) continue;
              // Without a scatter index the reduction is an allreduce.
              Distribution alpha(s_r, reduce_dim != 0 && scatter
                                          ? (repl_right ? j0 : i0)
                                          : kNoIndex);
              PlanStep step = replicated_step(node, repl_right, stationary,
                                              tr ? alpha.transposed() : alpha,
                                              reduce_dim);
              step.node = root;

              const CannonRunResult r =
                  run_step(net, grid, space, node, step, a, b);
              const PhaseResult replay = simulate_step(
                  net, grid, space, node, step, tree.node(node.left).tensor,
                  tree.node(node.right).tensor);
              const std::uint32_t splits = (s_r != kNoIndex ? 1u : 0u) +
                                           (s_k != kNoIndex ? 1u : 0u);
              std::uint64_t flops = tree.flops(root);
              for (std::uint32_t d = 0; d < splits; ++d) flops /= grid.edge;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(r.timing.comm_s),
                        std::bit_cast<std::uint64_t>(replay.comm_s))
                  << "procs=" << procs << " repl_right=" << repl_right
                  << " s_r=" << int(s_r) << " s_k=" << int(s_k)
                  << " tr=" << tr << " scatter=" << scatter;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(r.timing.compute_s),
                        std::bit_cast<std::uint64_t>(replay.compute_s));
              EXPECT_EQ(std::bit_cast<std::uint64_t>(r.timing.compute_s),
                        std::bit_cast<std::uint64_t>(
                            static_cast<double>(flops) /
                            net.spec().flops_per_proc));
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 3u * (3 + 2) * (2 * 2 + 1) * 2);
}

TEST(ReplicationExecutor, WholeTreeWithMixedTemplates) {
  // Execute the scaled paper tree with the extension enabled: the plan
  // mixes replicated and Cannon steps; numerics must still match.
  FormulaSequence seq = parse_formula_sequence(R"(
    index a, b, c, d = 16
    index e, f = 8
    index i, j, k, l = 4
    T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
    T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
    S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
  )");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  const ProcGrid grid = ProcGrid::make(16, 2);
  Network net(ClusterSpec::itanium2003(8));
  CharacterizedModel model(characterize(net, grid));

  OptimizerConfig cfg;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, model, cfg);

  Rng rng(31);
  auto inputs = make_random_inputs(tree, rng);
  TreeRunResult run = run_plan(net, grid, tree, plan, inputs);
  DenseTensor want = evaluate_tree(tree, inputs);
  EXPECT_LT(want.max_abs_diff(run.result), 1e-9);
  // This workload's optimum at this scale may or may not replicate;
  // either way the execution must be correct.
}

TEST(Replication, DuplicationPenaltyChargesIdleGridDims) {
  // With the penalty in place, a partially assigned configuration can
  // only win when memory forces it; unconstrained optima always use
  // fully assigned triplets on this workload.
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.enable_replication_template = true;
  OptimizedPlan plan = optimize(tree, model, cfg);
  for (const PlanStep& s : plan.steps) {
    if (s.tmpl == StepTemplate::kCannon) {
      EXPECT_NE(s.choice.i, kNoIndex);
      EXPECT_NE(s.choice.j, kNoIndex);
      EXPECT_NE(s.choice.k, kNoIndex);
    } else {
      EXPECT_NE(s.result_dist.at(1) == kNoIndex &&
                    s.result_dist.at(2) == kNoIndex,
                true);
    }
  }
}

}  // namespace
}  // namespace tce
