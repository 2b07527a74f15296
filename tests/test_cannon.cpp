// Tests for tce/cannon: the distributed generalized Cannon executor must
// produce results identical to the reference einsum for every rotation
// choice and orientation, with sensible simulated timings.  Against a
// block-by-block reference of its schedule it must agree bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <type_traits>

#include "tce/cannon/executor.hpp"
#include "tce/common/error.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/log.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/ttgt.hpp"

#include "block_reference.hpp"

namespace tce {
namespace {

// Small version of the paper's workload: same structure, grid-divisible
// extents that are cheap to evaluate numerically.
constexpr const char* kSmallPaper = R"(
  index a, b, c, d = 8
  index e, f = 4
  index i, j, k, l = 4
  T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
  T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
  S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
)";

/// The bitwise batteries' kernel configs: both kernels at the default
/// tiles, and the tiled kernel at 8/8/8 tiles, where K crosses KC panels
/// and N crosses NC panels.
const KernelConfig kExactConfigs[] = {
    {KernelKind::kReference, TileConfig{}, 0},
    {KernelKind::kTiled, TileConfig{}, 0},
    {KernelKind::kTiled, TileConfig{8, 8, 8}, 0},
};

/// "ref kc=256" and the like, for failure messages.
std::string config_name(const KernelConfig& cfg) {
  return std::string(kernel_kind_name(cfg.kind)) +
         " kc=" + std::to_string(cfg.tiles.kc);
}

bool bitwise_equal(const DenseTensor& x, const DenseTensor& y) {
  return x.dims() == y.dims() && x.extents() == y.extents() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(double)) == 0;
}

std::vector<CannonChoice> full_triplets(const ContractionNode& node) {
  std::vector<CannonChoice> out;
  for (const auto& c : enumerate_cannon_choices(node)) {
    if (c.i != kNoIndex && c.j != kNoIndex && c.k != kNoIndex) {
      out.push_back(c);
    }
  }
  return out;
}

/// The unfused Cannon plan step of \p choice for \p node.
PlanStep cannon_step(const ContractionNode& node, const CannonChoice& choice) {
  PlanStep step;
  step.result_name = node.tensor.name;
  step.choice = choice;
  step.left_dist = choice.left_dist();
  step.right_dist = choice.right_dist();
  step.result_dist = choice.result_dist();
  return step;
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

/// Elements of \p dims' block when \p split1 and \p split2 are cut
/// \p edge ways and every other dimension is whole.
std::uint64_t block_elems(const IndexSpace& space,
                          const std::vector<IndexId>& dims, IndexId split1,
                          IndexId split2, std::uint32_t edge) {
  std::uint64_t n = 1;
  for (IndexId d : dims) {
    n *= (d == split1 || d == split2) ? space.extent(d) / edge
                                      : space.extent(d);
  }
  return n;
}

/// The schedule of executor.hpp's file comment, block by block with the
/// public helpers: logical processor (w1, w2) multiplies the triple
/// (bi, bj, bk) at step s, and each result block starts zeroed, takes
/// one ttgt_contract_acc per step in step order, and is placed last.
DenseTensor reference_cannon(const IndexSpace& space, const ProcGrid& grid,
                             const ContractionNode& node,
                             const CannonChoice& c, const DenseTensor& a,
                             const DenseTensor& b) {
  const std::uint32_t e = grid.edge;
  const TensorRef a_ref{"A", a.dims()};
  const TensorRef b_ref{"B", b.dims()};
  auto c_range = [&](std::uint32_t bi, std::uint32_t bj) {
    return block_range(node.tensor, Distribution(c.i, c.j), space, grid, bi,
                       bj);
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, DenseTensor> c_blocks;
  for (std::uint32_t s = 0; s < e; ++s) {
    for (std::uint32_t w1 = 0; w1 < e; ++w1) {
      for (std::uint32_t w2 = 0; w2 < e; ++w2) {
        const std::uint32_t moving = (w1 + w2 + s) % e;
        std::uint32_t bi = w1, bj = w2, bk = moving;
        if (c.rot == c.i) {
          bi = moving;
          bk = w1;
        } else if (c.rot == c.j) {
          bj = moving;
          bk = w2;
        }
        const DenseTensor ab = extract_block(
            a, block_range(a_ref, Distribution(c.i, c.k), space, grid, bi,
                           bk));
        const DenseTensor bb = extract_block(
            b, block_range(b_ref, Distribution(c.k, c.j), space, grid, bk,
                           bj));
        auto it = c_blocks
                      .try_emplace({bi, bj}, node.tensor.dims,
                                   c_range(bi, bj).extents())
                      .first;
        ttgt_contract_acc(ab, bb, node.sum_indices, it->second);
      }
    }
  }
  DenseTensor out = make_tensor(node.tensor, space);
  for (const auto& [bij, blk] : c_blocks) {
    place_block(blk, c_range(bij.first, bij.second), out);
  }
  return out;
}

/// A Cannon run_step's peak_rank_bytes from the block extents alone: the
/// three resident blocks plus a receive buffer for the largest rotating
/// one.
std::uint64_t cannon_peak_bytes(const IndexSpace& space,
                                const ProcGrid& grid,
                                const ContractionNode& node,
                                const CannonChoice& c, const DenseTensor& a,
                                const DenseTensor& b) {
  const std::uint64_t na = block_elems(space, a.dims(), c.i, c.k, grid.edge);
  const std::uint64_t nb = block_elems(space, b.dims(), c.k, c.j, grid.edge);
  const std::uint64_t nc =
      block_elems(space, node.tensor.dims, c.i, c.j, grid.edge);
  std::uint64_t moving = 0;
  if (c.rotates_left()) moving = std::max(moving, na);
  if (c.rotates_right()) moving = std::max(moving, nb);
  if (c.rotates_result()) moving = std::max(moving, nc);
  return (na + nb + nc + moving) * sizeof(double);
}

/// Runs \p choice under every kExactConfigs entry and requires
/// run_step to equal reference_cannon bit for bit and its peak to match
/// the closed form.
void expect_cannon_exact(const Network& net, const ProcGrid& grid,
                         const IndexSpace& space, const ContractionNode& n,
                         const CannonChoice& choice, const DenseTensor& a,
                         const DenseTensor& b) {
  for (const KernelConfig& cfg : kExactConfigs) {
    const ScopedKernelConfig scoped(cfg);
    const CannonRunResult r =
        run_step(net, grid, space, n, cannon_step(n, choice), a, b);
    EXPECT_TRUE(bitwise_equal(
        r.result, reference_cannon(space, grid, n, choice, a, b)))
        << n.tensor.name << " kernel=" << config_name(cfg)
        << " i=" << int(choice.i) << " j=" << int(choice.j)
        << " k=" << int(choice.k) << " rot=" << int(choice.rot)
        << " transposed=" << choice.transposed;
    EXPECT_EQ(r.peak_rank_bytes,
              cannon_peak_bytes(space, grid, n, choice, a, b))
        << n.tensor.name;
  }
}

class CannonFixture : public ::testing::Test {
 protected:
  CannonFixture()
      : tree_(ContractionTree::from_sequence(
            parse_formula_sequence(kSmallPaper))),
        grid_(ProcGrid::make(16, 2)),
        net_(ClusterSpec::itanium2003(8)),
        rng_(123),
        inputs_(make_random_inputs(tree_, rng_)) {}

  const ContractionNode& first_contraction() const {
    for (NodeId id : tree_.post_order()) {
      if (tree_.node(id).kind == ContractionNode::Kind::kContraction) {
        return tree_.node(id);
      }
    }
    throw Error("no contraction");
  }

  ContractionTree tree_;
  ProcGrid grid_;
  Network net_;
  Rng rng_;
  std::map<std::string, DenseTensor> inputs_;
};

TEST_F(CannonFixture, MatchesReferenceForEveryChoice) {
  const ContractionNode& n = first_contraction();
  const DenseTensor& b = inputs_.at("B");
  const DenseTensor& d = inputs_.at("D");
  const DenseTensor want =
      einsum_pair(b, d, n.tensor.dims, n.sum_indices);

  // All fully-assigned choices must give the same result (the summation
  // order within a block is fixed; across blocks the partial sums are
  // added in ring order, so allow roundoff).
  for (const auto& choice : enumerate_cannon_choices(n)) {
    if (choice.i == kNoIndex || choice.j == kNoIndex ||
        choice.k == kNoIndex) {
      continue;  // the numeric executor requires a full triplet
    }
    CannonRunResult r = run_step(net_, grid_, tree_.space(), n,
                                 cannon_step(n, choice), b, d);
    EXPECT_LT(want.max_abs_diff(r.result), 1e-10)
        << "choice i=" << int(choice.i) << " j=" << int(choice.j)
        << " k=" << int(choice.k) << " rot=" << int(choice.rot)
        << " transposed=" << choice.transposed;
    EXPECT_GT(r.timing.comm_s, 0.0);
    EXPECT_GT(r.timing.compute_s, 0.0);
    EXPECT_GT(r.peak_rank_bytes, 0u);
  }
}

TEST_F(CannonFixture, MatchesBlockReferenceBitwise) {
  // Every contraction of the tree, with reference values as operands.
  std::map<NodeId, DenseTensor> values;
  for (NodeId id : tree_.post_order()) {
    const ContractionNode& n = tree_.node(id);
    if (n.kind == ContractionNode::Kind::kInput) {
      values.emplace(id, inputs_.at(n.tensor.name));
      continue;
    }
    const DenseTensor& a = values.at(n.left);
    const DenseTensor& b = values.at(n.right);
    for (const CannonChoice& choice : full_triplets(n)) {
      expect_cannon_exact(net_, grid_, tree_.space(), n, choice, a, b);
    }
    values.emplace(id, einsum_pair(a, b, n.tensor.dims, n.sum_indices));
  }
}

TEST_F(CannonFixture, WholeTreeMatchesReference) {
  TreeRunResult r =
      run_tree(net_, grid_, tree_, std::map<NodeId, CannonChoice>{}, inputs_);
  DenseTensor want = evaluate_tree(tree_, inputs_);
  EXPECT_LT(want.max_abs_diff(r.result), 1e-9);
  EXPECT_GT(r.timing.comm_s, 0.0);
}

TEST_F(CannonFixture, TimingScalesWithRotatedVolume) {
  // Rotating the two small arrays must beat rotating a big one.  For the
  // first contraction (T1 = B·D), T1 is by far the largest array; choices
  // that keep T1 fixed (rot = k) should communicate less.
  const ContractionNode& n = first_contraction();
  double best_fixed_t1 = 1e300, best_rotating_t1 = 1e300;
  for (const auto& choice : enumerate_cannon_choices(n)) {
    if (choice.i == kNoIndex || choice.j == kNoIndex ||
        choice.k == kNoIndex) {
      continue;
    }
    CannonRunResult r =
        run_step(net_, grid_, tree_.space(), n, cannon_step(n, choice),
                 inputs_.at("B"), inputs_.at("D"));
    if (choice.rotates_result()) {
      best_rotating_t1 = std::min(best_rotating_t1, r.timing.comm_s);
    } else {
      best_fixed_t1 = std::min(best_fixed_t1, r.timing.comm_s);
    }
  }
  EXPECT_LT(best_fixed_t1, best_rotating_t1);
}

TEST_F(CannonFixture, ComputeTimeMatchesFlopModel) {
  const ContractionNode& n = first_contraction();
  const CannonChoice choice = enumerate_cannon_choices(n).front();
  CannonRunResult r =
      run_step(net_, grid_, tree_.space(), n, cannon_step(n, choice),
               inputs_.at("B"), inputs_.at("D"));
  // Total flops split evenly across P ranks, perfectly parallel.
  const double want = static_cast<double>(tree_.flops(
                          [&] {
                            for (NodeId id : tree_.post_order()) {
                              if (&tree_.node(id) == &n) return id;
                            }
                            return kNoNode;
                          }())) /
                      grid_.procs / net_.spec().flops_per_proc;
  EXPECT_NEAR(r.timing.compute_s, want, 1e-9 * want);
}

TEST_F(CannonFixture, RejectsPartialTriplet) {
  // Matrix-vector contraction has an empty J set -> no full triplet.
  FormulaSequence seq = parse_formula_sequence(
      "index i = 16; index k = 16\ny[i] = sum[k] M[i,k] * x[k]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  const ContractionNode& n = t.node(t.root());
  auto choices = enumerate_cannon_choices(n);
  Rng rng(5);
  auto ins = make_random_inputs(t, rng);
  EXPECT_THROW(run_step(net_, grid_, t.space(), n,
                        cannon_step(n, choices.front()), ins.at("M"),
                        ins.at("x")),
               Error);
}

TEST_F(CannonFixture, RejectsNonDividingExtents) {
  FormulaSequence seq = parse_formula_sequence(
      "index i, j = 6; index k = 8\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  Rng rng(5);
  auto ins = make_random_inputs(t, rng);
  const ContractionNode& n = t.node(t.root());
  // 6 does not divide edge 4.
  EXPECT_THROW(
      run_tree(net_, grid_, t, std::map<NodeId, CannonChoice>{}, ins),
      Error);
  (void)n;
}

TEST_F(CannonFixture, TimingEqualsThePlanReplayBitwise) {
  // run_step takes its timing from core/simulate's replay, which times a
  // rotation as characterization does: one ring-shift step run edge
  // times.  So for every full triplet of every contraction, the
  // executor's timing is bit for bit the replay of its unfused plan
  // step, and its compute_s is one block product per rank added edge
  // times.
  const IndexSpace& space = tree_.space();
  const std::uint32_t e = grid_.edge;
  std::map<NodeId, DenseTensor> values;
  std::size_t runs = 0;
  for (NodeId id : tree_.post_order()) {
    const ContractionNode& n = tree_.node(id);
    if (n.kind == ContractionNode::Kind::kInput) {
      values.emplace(id, inputs_.at(n.tensor.name));
      continue;
    }
    const DenseTensor& a = values.at(n.left);
    const DenseTensor& b = values.at(n.right);
    const double block_s =
        static_cast<double>(2 * (n.loop_indices().extent_product(space) /
                                 (e * e * e))) /
        net_.spec().flops_per_proc;
    double want_compute = 0;
    for (std::uint32_t s = 0; s < e; ++s) want_compute += block_s;
    for (const CannonChoice& choice : full_triplets(n)) {
      PlanStep step = cannon_step(n, choice);
      step.node = id;
      const CannonRunResult r = run_step(net_, grid_, space, n, step, a, b);
      const PhaseResult replay =
          simulate_step(net_, grid_, space, n, step,
                        tree_.node(n.left).tensor,
                        tree_.node(n.right).tensor);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.timing.comm_s),
                std::bit_cast<std::uint64_t>(replay.comm_s))
          << n.tensor.name << " rot=" << int(choice.rot)
          << " transposed=" << choice.transposed;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.timing.compute_s),
                std::bit_cast<std::uint64_t>(replay.compute_s))
          << n.tensor.name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.timing.compute_s),
                std::bit_cast<std::uint64_t>(want_compute))
          << n.tensor.name;
      ++runs;
    }
    values.emplace(id, einsum_pair(a, b, n.tensor.dims, n.sum_indices));
  }
  EXPECT_GT(runs, 0u);
}

TEST_F(CannonFixture, FusedStepRunsAsItsUnfusedCopy) {
  // The executor runs whole arrays, so a fused step runs and is timed
  // exactly as its copy with the fusion cleared.  These limits fuse T2
  // and S: Cannon steps at 8 KB per node, replicated ones at 30 KB.
  const CharacterizedModel model(characterize(net_, grid_));
  const IndexSpace& space = tree_.space();
  std::set<StepTemplate> fused_templates;
  for (const auto& [limit, replication] :
       {std::pair{std::uint64_t{8'000}, false},
        std::pair{std::uint64_t{30'000}, true}}) {
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = limit;
    cfg.enable_replication_template = replication;
    const OptimizedPlan plan = optimize(tree_, model, cfg);
    std::map<NodeId, const PlanStep*> steps;
    for (const PlanStep& s : plan.steps) steps[s.node] = &s;
    std::map<NodeId, DenseTensor> values;
    for (NodeId id : tree_.post_order()) {
      const ContractionNode& n = tree_.node(id);
      if (n.kind == ContractionNode::Kind::kInput) {
        values.emplace(id, inputs_.at(n.tensor.name));
        continue;
      }
      const PlanStep& step = *steps.at(id);
      const DenseTensor& a = values.at(n.left);
      const DenseTensor& b = values.at(n.right);
      if (!step.effective_fused.empty()) {
        fused_templates.insert(step.tmpl);
        PlanStep unfused = step;
        unfused.fusion = IndexSet();
        unfused.effective_fused = IndexSet();
        const CannonRunResult got = run_step(net_, grid_, space, n, step, a, b);
        const CannonRunResult want =
            run_step(net_, grid_, space, n, unfused, a, b);
        EXPECT_TRUE(bitwise_equal(got.result, want.result)) << n.tensor.name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.timing.comm_s),
                  std::bit_cast<std::uint64_t>(want.timing.comm_s))
            << n.tensor.name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.timing.compute_s),
                  std::bit_cast<std::uint64_t>(want.timing.compute_s))
            << n.tensor.name;
        EXPECT_EQ(got.peak_rank_bytes, want.peak_rank_bytes) << n.tensor.name;
      }
      values.emplace(id, einsum_pair(a, b, n.tensor.dims, n.sum_indices));
    }
  }
  EXPECT_EQ(fused_templates,
            (std::set{StepTemplate::kCannon, StepTemplate::kReplicated}));
}

TEST_F(CannonFixture, RunTreeEqualsRunPlanBitwise) {
  // run_tree is run_plan over the unfused Cannon steps of its choices,
  // so a Cannon-only plan's choices run bit for bit as the plan does,
  // fused (8 KB per node) or not.
  const CharacterizedModel model(characterize(net_, grid_));
  for (const std::uint64_t limit : {std::uint64_t{0}, std::uint64_t{8'000}}) {
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = limit;
    const OptimizedPlan plan = optimize(tree_, model, cfg);
    std::map<NodeId, CannonChoice> choices;
    for (const PlanStep& s : plan.steps) {
      ASSERT_EQ(s.tmpl, StepTemplate::kCannon);
      choices[s.node] = s.choice;
    }
    const TreeRunResult tree_run =
        run_tree(net_, grid_, tree_, choices, inputs_);
    const TreeRunResult plan_run = run_plan(net_, grid_, tree_, plan, inputs_);
    EXPECT_TRUE(bitwise_equal(tree_run.result, plan_run.result)) << limit;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree_run.timing.comm_s),
              std::bit_cast<std::uint64_t>(plan_run.timing.comm_s))
        << limit;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree_run.timing.compute_s),
              std::bit_cast<std::uint64_t>(plan_run.timing.compute_s))
        << limit;
  }
}

TEST_F(CannonFixture, OnlySplitExtentsMustDivideTheGridEdge) {
  // Split 4 ways, m (6) fails both templates through
  // cannon/executor.fail; left whole, it runs.
  FormulaSequence seq = parse_formula_sequence(
      "index i, j, k = 8; index m = 6\n"
      "C[i,m,j] = sum[k] A[i,m,k] * B[k,j]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  Rng rng(5);
  const auto ins = make_random_inputs(t, rng);
  const DenseTensor& a = ins.at("A");
  const DenseTensor& b = ins.at("B");
  const ContractionNode& n = t.node(t.root());
  const IndexSpace& space = t.space();
  const IndexId i = space.id("i"), j = space.id("j"), k = space.id("k"),
                m = space.id("m");
  obs::flight_recorder_clear();
  obs::flight_recorder_enable(true);
  EXPECT_THROW(run_step(net_, grid_, space, n,
                        cannon_step(n, CannonChoice{m, j, k, false, k}), a,
                        b),
               Error);
  EXPECT_THROW(run_step(net_, grid_, space, n,
                        replicated_step(n, true, Distribution(m, k),
                                        Distribution(m, j), 2),
                        a, b),
               Error);
  const std::string dump = obs::flight_recorder_dump();
  obs::flight_recorder_enable(false);
  obs::flight_recorder_clear();
  const std::string event = "\"event\":\"executor.fail\"";
  const std::size_t first = dump.find(event);
  ASSERT_NE(first, std::string::npos) << dump;
  EXPECT_NE(dump.find(event, first + 1), std::string::npos) << dump;

  const DenseTensor want = einsum_pair(a, b, n.tensor.dims, n.sum_indices);
  EXPECT_LT(want.max_abs_diff(
                run_step(net_, grid_, space, n,
                         cannon_step(n, CannonChoice{i, j, k, false, k}), a,
                         b)
                    .result),
            1e-10);
  EXPECT_LT(want.max_abs_diff(
                run_step(net_, grid_, space, n,
                         replicated_step(n, true, Distribution(i, k),
                                         Distribution(i, j), 2),
                         a, b)
                    .result),
            1e-10);
}

/// A replicated run_step's schedule with the public helpers: each rank
/// contracts its stationary block against the matching slice of the
/// replicated operand into a zeroed partial, and every rank that is not
/// a replica accumulates its partial into the result in rank order.
DenseTensor reference_replicated(const IndexSpace& space,
                                 const ProcGrid& grid,
                                 const ContractionNode& node,
                                 const PlanStep& step,
                                 const DenseTensor& a, const DenseTensor& b) {
  const DenseTensor& stat = step.replicate_right ? a : b;
  const DenseTensor& repl = step.replicate_right ? b : a;
  const TensorRef stat_ref{"S", stat.dims()};
  const TensorRef repl_ref{"R", repl.dims()};
  const Distribution& sd =
      step.replicate_right ? step.left_dist : step.right_dist;
  auto partial_pos = [&](int d) {
    const IndexId r = step.result_dist.at(d);
    return (r != kNoIndex && sd.at(d) == r) ? r : kNoIndex;
  };
  auto slice_pos = [&](int d) {
    return repl_ref.index_set().contains(sd.at(d)) ? sd.at(d) : kNoIndex;
  };
  const Distribution partial_dist(partial_pos(1), partial_pos(2));
  const Distribution slice_dist(slice_pos(1), slice_pos(2));

  DenseTensor out = make_tensor(node.tensor, space);
  for (std::uint32_t z1 = 0; z1 < grid.edge; ++z1) {
    for (std::uint32_t z2 = 0; z2 < grid.edge; ++z2) {
      const DenseTensor sb = extract_block(
          stat, block_range(stat_ref, sd, space, grid, z1, z2));
      const DenseTensor rb = extract_block(
          repl, block_range(repl_ref, slice_dist, space, grid, z1, z2));
      const BlockRange pr =
          block_range(node.tensor, partial_dist, space, grid, z1, z2);
      DenseTensor partial(node.tensor.dims, pr.extents());
      if (step.replicate_right) {
        ttgt_contract_acc(sb, rb, node.sum_indices, partial);
      } else {
        ttgt_contract_acc(rb, sb, node.sum_indices, partial);
      }
      const bool replica = (sd.at(1) == kNoIndex && z1 != 0) ||
                           (sd.at(2) == kNoIndex && z2 != 0);
      if (!replica) accumulate_block(partial, pr, out);
    }
  }
  return out;
}

TEST(CannonReplicated, MatchesBlockReferenceBitwise) {
  // C[i0,i1,j0] = Σ_{k0,k1} A[i0,k0,i1,k1] · B[j0,k0,k1] on 2×2 and 4×4
  // grids, over every side, stationary split, reduction and
  // orientation.
  IndexSpace space;
  IndexId i0 = space.add("i0", 8), i1 = space.add("i1", 12),
          j0 = space.add("j0", 8), k0 = space.add("k0", 8),
          k1 = space.add("k1", 4);
  ContractionNode node;
  node.kind = ContractionNode::Kind::kContraction;
  node.tensor = TensorRef{"C", {i0, i1, j0}};
  node.sum_indices = IndexSet::of({k0, k1});
  node.left_indices = IndexSet::of({i0, i1});
  node.right_indices = IndexSet::single(j0);

  Rng rng(29);
  DenseTensor a = make_tensor(TensorRef{"A", {i0, k0, i1, k1}}, space);
  DenseTensor b = make_tensor(TensorRef{"B", {j0, k0, k1}}, space);
  a.fill_random(rng);
  b.fill_random(rng);

  std::size_t runs = 0;
  for (const std::uint32_t procs : {4u, 16u}) {
    const ProcGrid grid = ProcGrid::make(procs, 2);
    const Network net(ClusterSpec::itanium2003(procs / 2));
    for (const bool repl_right : {false, true}) {
      const DenseTensor& stat = repl_right ? a : b;
      const std::vector<IndexId> s_rs =
          repl_right ? std::vector<IndexId>{i0, i1, kNoIndex}
                     : std::vector<IndexId>{j0, kNoIndex};
      for (const IndexId s_r : s_rs) {
        for (const IndexId s_k : {k0, k1, kNoIndex}) {
          for (const bool tr : {false, true}) {
            Distribution stationary(s_r, s_k);
            if (tr) stationary = stationary.transposed();
            const int reduce_dim = stationary.dim_of(s_k);
            Distribution alpha(s_r, reduce_dim != 0 ? (repl_right ? j0 : i0)
                                                    : kNoIndex);
            const PlanStep step =
                replicated_step(node, repl_right, stationary,
                                tr ? alpha.transposed() : alpha, reduce_dim);

            const std::uint64_t stat_elems =
                block_elems(space, stat.dims(), s_r, s_k, grid.edge);
            const std::uint64_t want_peak =
                (stat_elems + (repl_right ? b : a).size() +
                 block_elems(space, node.tensor.dims, s_r, kNoIndex,
                             grid.edge)) *
                sizeof(double);
            for (const KernelConfig& cfg : kExactConfigs) {
              const ScopedKernelConfig scoped(cfg);
              const CannonRunResult r =
                  run_step(net, grid, space, node, step, a, b);
              EXPECT_TRUE(bitwise_equal(
                  r.result,
                  reference_replicated(space, grid, node, step, a, b)))
                  << "procs=" << procs << " repl_right=" << repl_right
                  << " s_r=" << int(s_r) << " s_k=" << int(s_k)
                  << " tr=" << tr << " kernel=" << config_name(cfg);
              EXPECT_EQ(r.peak_rank_bytes, want_peak);
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 2 * 2 * (3 + 2) * 3 * std::size(kExactConfigs));
}

// Parameterized sweep over random contraction shapes and grids: the
// executor must agree with the reference evaluator everywhere.
// gtest names each case by the bytes of its parameter, so the struct must
// have no padding: indeterminate padding bytes would give the same case a
// different name in each build.
struct SweepCase {
  std::uint64_t procs;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

/// The sweep's random contraction: ranks-4 operands whose extents are
/// multiples of the grid edge, filled from the case's seed.
struct SweepProblem {
  explicit SweepProblem(const SweepCase& param)
      : grid(ProcGrid::make(static_cast<std::uint32_t>(param.procs), 1)),
        net(ClusterSpec::itanium2003(static_cast<std::uint32_t>(param.procs),
                                     1)),
        rng(param.seed) {
    const std::uint32_t e = grid.edge;
    auto ext = [&] {
      return e * static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    };
    IndexId i0 = space.add("i0", ext());
    IndexId i1 = space.add("i1", ext());
    IndexId j0 = space.add("j0", ext());
    IndexId j1 = space.add("j1", ext());
    IndexId k0 = space.add("k0", ext());
    IndexId k1 = space.add("k1", ext());

    TensorRef aref{"Aop", {i0, k0, i1, k1}};
    TensorRef bref{"Bop", {j0, k0, j1, k1}};
    TensorRef cref{"Cres", {i0, i1, j0, j1}};

    node.kind = ContractionNode::Kind::kContraction;
    node.tensor = cref;
    node.sum_indices = IndexSet::of({k0, k1});
    node.left_indices = IndexSet::of({i0, i1});
    node.right_indices = IndexSet::of({j0, j1});

    a = make_tensor(aref, space);
    b = make_tensor(bref, space);
    a.fill_random(rng);
    b.fill_random(rng);
  }

  ProcGrid grid;
  Network net;
  Rng rng;
  IndexSpace space;
  ContractionNode node;
  DenseTensor a;
  DenseTensor b;
};

TEST(CannonOneRank, MovesNothing) {
  // On a 1×1 grid every block stays home: no flow, no communication
  // time, and all the compute on the one rank.
  SweepProblem pr(SweepCase{1, 1});
  for (const CannonChoice& choice : full_triplets(pr.node)) {
    const CannonRunResult r = run_step(pr.net, pr.grid, pr.space, pr.node,
                                       cannon_step(pr.node, choice), pr.a,
                                       pr.b);
    EXPECT_EQ(r.timing.comm_s, 0.0);
    EXPECT_GT(r.timing.compute_s, 0.0);
  }
}

class CannonSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CannonSweep, RandomShapesMatchReference) {
  SweepProblem pr(GetParam());
  DenseTensor want =
      einsum_pair(pr.a, pr.b, pr.node.tensor.dims, pr.node.sum_indices);

  // Try a handful of random fully-assigned choices.
  const std::vector<CannonChoice> choices = full_triplets(pr.node);
  for (int t = 0; t < 4; ++t) {
    const auto& choice = choices[static_cast<std::size_t>(pr.rng.uniform_int(
        0, static_cast<std::int64_t>(choices.size()) - 1))];
    CannonRunResult r = run_step(pr.net, pr.grid, pr.space, pr.node,
                                 cannon_step(pr.node, choice), pr.a, pr.b);
    EXPECT_LT(want.max_abs_diff(r.result), 1e-10);
  }
}

TEST_P(CannonSweep, MatchesBlockReferenceBitwise) {
  SweepProblem pr(GetParam());
  for (const CannonChoice& choice : full_triplets(pr.node)) {
    expect_cannon_exact(pr.net, pr.grid, pr.space, pr.node, choice, pr.a,
                        pr.b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndSeeds, CannonSweep,
    ::testing::Values(SweepCase{1, 1}, SweepCase{4, 2}, SweepCase{4, 3},
                      SweepCase{9, 4}, SweepCase{9, 5}, SweepCase{16, 6},
                      SweepCase{16, 7}, SweepCase{25, 8}));

}  // namespace
}  // namespace tce
