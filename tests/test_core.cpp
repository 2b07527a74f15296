// Tests for tce/core: the memory-constrained communication minimization
// DP, checked against first-principles costs, invariants, and the
// paper's published Tables 1 and 2.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "tce/common/assert.hpp"
#include "tce/common/error.hpp"
#include "tce/core/accounting.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"

#include "paper_workload.hpp"
#include "tce/fusion/memmin.hpp"

namespace tce {
namespace {

using ::tce::testing::kNodeLimit4GB;
using ::tce::testing::kPaperProgram;
using ::tce::testing::paper_tree;


const ArrayReport& row(const OptimizedPlan& plan, const std::string& name) {
  for (const auto& r : plan.arrays) {
    if (r.full.name == name) return r;
  }
  throw Error("no array row " + name);
}

// -------------------------------------------------- single contraction

TEST(Optimizer, SingleMatmulCostFromFirstPrinciples) {
  // C[i,j] = sum[k] A[i,k] B[k,j], square N=64, P=16 (edge 4).  All three
  // arrays have equal blocks; the optimum rotates two of them, each a
  // full rotation of N²/P-element blocks.
  FormulaSequence seq = parse_formula_sequence(
      "index i, j, k = 64\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  AnalyticParams p;
  p.step_latency_s = 0.5;
  p.proc_bw = 1e6;
  AnalyticModel model(ProcGrid::make(16, 2), p);
  OptimizedPlan plan = optimize(tree, model);

  const double block_bytes = 64.0 * 64.0 / 16.0 * 8.0;
  const double one_rotation = 4.0 * (0.5 + block_bytes / 1e6);
  EXPECT_NEAR(plan.total_comm_s, 2.0 * one_rotation, 1e-9);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_TRUE(plan.steps[0].fusion.empty());
}

TEST(Optimizer, SingleMatmulKeepsLargestArrayFixed) {
  // Rectangular: k tiny -> A and B are small, C is huge; the optimizer
  // must rotate A and B (rot = k) and keep C fixed.
  FormulaSequence seq = parse_formula_sequence(
      "index i, j = 256; index k = 4\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  AnalyticModel model(ProcGrid::make(4, 2), AnalyticParams{});
  OptimizedPlan plan = optimize(tree, model);
  ASSERT_EQ(plan.steps.size(), 1u);
  const PlanStep& s = plan.steps[0];
  EXPECT_EQ(s.choice.rot, s.choice.k);
  EXPECT_EQ(s.rot_result_s, 0.0);
  EXPECT_GT(s.rot_left_s, 0.0);
  EXPECT_GT(s.rot_right_s, 0.0);
}

// ------------------------------------------------------------ RotateCost

// The paper's §3.3 RotateCost = MsgFactor · RCost(DistSize) as the search
// prices it (price of cannon_collectives, produced_operand), at Table 2's
// 16 processors under the analytic model.
class RotateCostFixture : public ::testing::Test {
 protected:
  RotateCostFixture()
      : seq_(parse_formula_sequence(kPaperProgram)),
        sp_(seq_.space()),
        grid_(ProcGrid::make(16, 2)),
        model_(grid_, AnalyticParams{}),
        geom_(sp_, grid_) {}

  TensorRef tensor(const std::string& name) const {
    for (const auto& t : seq_.inputs()) {
      if (t.name == name) return t;
    }
    for (const auto& f : seq_.formulas()) {
      if (f.result.name == name) return f.result;
    }
    throw Error("no tensor " + name);
  }

  IndexId id(const char* n) const { return sp_.id(n); }

  FormulaSequence seq_;
  const IndexSpace& sp_;
  ProcGrid grid_;
  AnalyticModel model_;
  GeomCache geom_;
};

TEST_F(RotateCostFixture, UnfusedRotationIsOneFullRotation) {
  // S = T2·A with A(a,c,i,k) at <a,k>, unfused: one full rotation of
  // 118 MB blocks along grid dimension 2.
  const TensorRef a = tensor("A");
  const CannonChoice c{.i = id("b"), .j = id("a"), .k = id("k"),
                       .transposed = true, .rot = id("k")};
  ASSERT_EQ(c.right_dist(), Distribution(id("a"), id("k")));
  ASSERT_EQ(c.right_rot_dim(), 2);
  const StepComm comm = price(
      model_,
      cannon_collectives(geom_, c, tensor("T2"), a, tensor("S"), IndexSet()));
  const std::uint64_t block =
      dist_bytes(a, c.right_dist(), IndexSet(), sp_, grid_);
  EXPECT_DOUBLE_EQ(comm.right_s, model_.rotate_cost(block, 2));
  // ≈ paper's 34.6 s (Table 2).
  EXPECT_NEAR(comm.right_s, 34.6, 3.0);
}

TEST_F(RotateCostFixture, FusedRotationMultipliesMessages) {
  // T1 = B·D with B(b,e,f,l) at <e,b> and f fused: 64 iterations of a
  // rotation of the (b/4,e/4,1,l) slice.  Paper Table 2: 25.7 s.
  const TensorRef b = tensor("B");
  const IndexSet fused = IndexSet::single(id("f"));
  const CannonChoice c{.i = id("b"), .j = id("c"), .k = id("e"),
                       .transposed = true, .rot = id("b")};
  ASSERT_EQ(c.left_dist(), Distribution(id("e"), id("b")));
  ASSERT_EQ(c.left_rot_dim(), 1);
  const StepComm comm = price(
      model_,
      cannon_collectives(geom_, c, b, tensor("D"), tensor("T1"), fused));
  EXPECT_NEAR(comm.left_s, 25.7, 3.0);
  // Identity: MsgFactor (N_f = 64 fused iterations) × RCost(DistSize).
  EXPECT_DOUBLE_EQ(
      comm.left_s,
      64.0 * model_.rotate_cost(dist_bytes(b, c.left_dist(), fused, sp_,
                                           grid_),
                                1));
}

TEST_F(RotateCostFixture, FusedT1RotationDominates) {
  // T2 = T1·C with T1(b,c,d) (f fused) at <d,b>, rotated per f
  // iteration: the paper's dominant 902 s entry.
  const CannonChoice c{.i = id("b"), .j = id("j"), .k = id("d"),
                       .transposed = true, .rot = id("d")};
  ASSERT_EQ(c.left_dist(), Distribution(id("d"), id("b")));
  ASSERT_EQ(c.left_rot_dim(), 1);
  const StepComm comm =
      price(model_,
            cannon_collectives(geom_, c, tensor("T1"), tensor("C"),
                               tensor("T2"), IndexSet::single(id("f"))));
  EXPECT_GT(comm.left_s, 700.0);
  EXPECT_LT(comm.left_s, 1300.0);
}

TEST_F(RotateCostFixture, RedistributeZeroWhenSame) {
  // An intermediate consumed in the layout it was made in moves
  // nothing; a materialized one in another layout pays one reshuffle of
  // its producer-side block.
  const TensorRef t2 = tensor("T2");
  const Distribution made_in(id("b"), id("c"));
  const Distribution wanted(id("b"), id("k"));
  const OptimizerConfig cfg;
  const std::optional<Delivered> same = produced_operand(
      model_, geom_, cfg, t2, Footprint{}, made_in, IndexSet(), made_in,
      /*any_layout=*/false);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->redist_s, 0.0);
  const std::optional<Delivered> moved = produced_operand(
      model_, geom_, cfg, t2, Footprint{}, made_in, IndexSet(), wanted,
      /*any_layout=*/false);
  ASSERT_TRUE(moved.has_value());
  EXPECT_GT(moved->redist_s, 0.0);
  EXPECT_DOUBLE_EQ(moved->redist_s,
                   model_.redistribute_cost(dist_bytes(
                       t2, made_in, IndexSet(), sp_, grid_)));
}

// --------------------------------------------------------- invariants

TEST(Optimizer, FusionNeverHelpsWithoutMemoryPressure) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(64));
  OptimizerConfig with_fusion;
  OptimizerConfig no_fusion;
  no_fusion.enable_fusion = false;
  const double a = optimize(tree, model, with_fusion).total_comm_s;
  const double b = optimize(tree, model, no_fusion).total_comm_s;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Optimizer, CostIsMonotoneInMemoryLimit) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  double prev = std::numeric_limits<double>::infinity();
  for (std::uint64_t gb : {2, 3, 4, 6, 10, 100}) {
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = gb * 1'000'000'000ull;
    const double cost = optimize(tree, model, cfg).total_comm_s;
    EXPECT_LE(cost, prev * (1 + 1e-12)) << "limit " << gb << " GB";
    prev = cost;
  }
}

TEST(Optimizer, ReportedMemoryRespectsTheLimit) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  OptimizedPlan plan = optimize(tree, model, cfg);
  EXPECT_LE(plan.bytes_per_node() + plan.buffer_bytes_per_node(),
            cfg.mem_limit_node_bytes);
}

TEST(Optimizer, InfeasibleLimitThrows) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 100'000'000;  // 100 MB/node: hopeless
  EXPECT_THROW(optimize(tree, model, cfg), InfeasibleError);
}

TEST(Optimizer, FrozenMemMinFusionsCostAtLeastIntegrated) {
  // The "fuse first (for memory), then distribute" baseline can never
  // beat the integrated search under the same memory limit.  It may also
  // be infeasible outright: memory-minimal fusion collapses every
  // intermediate, leaving no index for the Cannon triplets — exactly the
  // interaction the paper's §2 warns about.  Both outcomes support the
  // paper's argument; a cheaper baseline would refute it.
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));

  OptimizerConfig integrated;
  integrated.mem_limit_node_bytes = kNodeLimit4GB;
  const double best = optimize(tree, model, integrated).total_comm_s;

  MemMinResult mm = minimize_memory(tree);
  OptimizerConfig frozen;
  frozen.mem_limit_node_bytes = kNodeLimit4GB;
  frozen.fixed_fusions = mm.fusions;
  try {
    const double baseline = optimize(tree, model, frozen).total_comm_s;
    EXPECT_GE(baseline, best * (1 - 1e-12));
  } catch (const InfeasibleError&) {
    SUCCEED();
  }
}

TEST(Optimizer, MemMinFusionCollapsesEverything) {
  // Sanity on the baseline itself: sequential memory minimization fuses
  // every intermediate completely (all fusable dims), shrinking T1 and T2
  // to scalars; total memory becomes just the inputs + output.
  ContractionTree tree = paper_tree();
  MemMinResult mm = minimize_memory(tree);
  std::uint64_t io_bytes = 0;
  for (NodeId id : tree.leaves()) {
    io_bytes += tensor_bytes(tree.node(id).tensor, tree.space());
  }
  io_bytes += tensor_bytes(tree.node(tree.root()).tensor, tree.space());
  EXPECT_LT(mm.total_bytes, io_bytes + 1024);
}

TEST(Optimizer, RejectsBatchContractionTrees) {
  ContractionTree tree = ContractionTree::from_sequence(parse_formula_sequence(R"(
    index i, j, t = 8
    S[i,j,t] = A[i,t] * B[j,t]
  )"));
  CharacterizedModel model(characterize_itanium(16));
  EXPECT_THROW(optimize(tree, model), Error);
}

TEST(Optimizer, HandlesReduceNodes) {
  // Contraction followed by a pure reduction.
  ContractionTree tree = ContractionTree::from_sequence(parse_formula_sequence(R"(
    index i, j, k = 64
    C[i,j] = sum[k] A[i,k] * B[k,j]
    s[] = sum[i,j] C[i,j]
  )"));
  AnalyticModel model(ProcGrid::make(16, 2), AnalyticParams{});
  OptimizedPlan plan = optimize(tree, model);
  EXPECT_GT(plan.total_comm_s, 0.0);
  // The reduce result is a scalar.
  EXPECT_EQ(row(plan, "s").full.rank(), 0u);
}

TEST(Simulate, AgreesWithPredictionAtPaperScale) {
  // The flow-level replay of the plan's communication must track the
  // characterized prediction closely at bandwidth-dominated sizes.
  ContractionTree tree = paper_tree();
  const ProcGrid grid = ProcGrid::make(16, 2);
  Network net(ClusterSpec::itanium2003(8));
  CharacterizedModel model(characterize(net, grid));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  OptimizedPlan plan = optimize(tree, model, cfg);
  const double sim = simulate_plan_comm(net, grid, tree, plan);
  EXPECT_NEAR(sim, plan.total_comm_s, 0.05 * plan.total_comm_s);
}

TEST(Simulate, StatsAreAccountedConsistently) {
  ContractionTree tree = paper_tree();
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  OptimizedPlan plan = optimize(tree, model, cfg);
  const OptimizerStats& st = plan.stats;
  EXPECT_GT(st.candidates, 1000u);
  EXPECT_EQ(st.candidates,
            st.infeasible + st.dominated + st.bounded + st.kept);
  EXPECT_GT(st.bounded, 0u);  // the root keeps only its cheapest ties
  for (const NodeSearchStats& n : st.nodes) {
    EXPECT_EQ(n.candidates, n.infeasible + n.dominated + n.bounded + n.kept)
        << n.result_name;
  }
  EXPECT_LE(st.max_per_node, st.kept);
  EXPECT_GT(st.dominated, st.kept);  // pruning is doing real work
}

// ------------------------------------------------ Table 1 reproduction

class Table1 : public ::testing::Test {
 protected:
  static const OptimizedPlan& plan() {
    static const OptimizedPlan p = [] {
      ContractionTree tree = paper_tree();
      static CharacterizedModel model(characterize_itanium(64));
      OptimizerConfig cfg;
      cfg.mem_limit_node_bytes = kNodeLimit4GB;
      return optimize(tree, model, cfg);
    }();
    return p;
  }
};

TEST_F(Table1, NoFusionIsNeeded) {
  for (const auto& s : plan().steps) {
    EXPECT_TRUE(s.fusion.empty()) << s.result_name;
  }
  for (const auto& r : plan().arrays) {
    EXPECT_EQ(r.reduced.dims, r.full.dims);
  }
}

TEST_F(Table1, MemoryPerNodeMatchesPaperExactly) {
  // All arrays fully distributed: Σ bytes / 32 nodes = 2,087,976,960 B,
  // the paper's "≈ 2.04GB/node".
  EXPECT_EQ(plan().bytes_per_node(), 2'087'976'960u);
  // Per-array rows (paper values, 1 MB = 1,024,000 B).
  EXPECT_EQ(row(plan(), "D").mem_per_node_bytes, 117'964'800u);  // 115.2MB
  EXPECT_EQ(row(plan(), "B").mem_per_node_bytes, 15'728'640u);   // 15.4MB
  EXPECT_EQ(row(plan(), "C").mem_per_node_bytes, 7'864'320u);    // 7.7MB
  EXPECT_EQ(row(plan(), "A").mem_per_node_bytes, 58'982'400u);   // 57.6MB
  EXPECT_EQ(row(plan(), "T1").mem_per_node_bytes,
            1'769'472'000u);                                     // 1.728GB
  EXPECT_EQ(row(plan(), "T2").mem_per_node_bytes, 58'982'400u);  // 57.6MB
  EXPECT_EQ(row(plan(), "S").mem_per_node_bytes, 58'982'400u);   // 57.6MB
}

TEST_F(Table1, SendBufferMatchesPaperLargestMessage) {
  // Largest message: D's 59 MB per-processor block (115.2 paper-MB per
  // node).
  EXPECT_EQ(plan().buffer_bytes_per_node(), 117'964'800u);
}

TEST_F(Table1, LargestIntermediateIsNeverCommunicated) {
  const ArrayReport& t1 = row(plan(), "T1");
  ASSERT_TRUE(t1.comm_initial_s.has_value());
  ASSERT_TRUE(t1.comm_final_s.has_value());
  EXPECT_EQ(*t1.comm_initial_s, 0.0);
  EXPECT_EQ(*t1.comm_final_s, 0.0);
  // And its produced distribution is reused unchanged (no redistribution).
  EXPECT_EQ(*t1.initial_dist, *t1.final_dist);
}

TEST_F(Table1, TotalCommunicationNearPaper) {
  // Paper: 98.0 s total communication, 7.0% of 1403.4 s.
  EXPECT_NEAR(plan().total_comm_s, 98.0, 15.0);
  EXPECT_NEAR(plan().comm_fraction(), 0.070, 0.015);
  EXPECT_NEAR(plan().total_runtime_s(), 1403.4, 150.0);
}

TEST_F(Table1, PerArrayCommunicationNearPaper) {
  EXPECT_NEAR(*row(plan(), "D").comm_final_s, 35.7, 6.0);
  EXPECT_NEAR(*row(plan(), "B").comm_final_s, 4.9, 1.5);
  EXPECT_NEAR(*row(plan(), "C").comm_final_s, 2.8, 1.0);
  // In the final step all three arrays have equal blocks; the paper notes
  // "any 2 arrays can be rotated for the same cost, and we choose A and
  // T2".  Our optimizer may pick any pair, so check the step total
  // (paper: 18.3 + 18.5 = 36.8 s).
  const PlanStep& last = plan().steps.back();
  EXPECT_EQ(last.result_name, "S");
  const double step3 =
      last.rot_left_s + last.rot_right_s + last.rot_result_s;
  EXPECT_NEAR(step3, 36.8, 7.0);
}

// ------------------------------------------------ Table 2 reproduction

class Table2 : public ::testing::Test {
 protected:
  static const OptimizedPlan& plan() {
    static const OptimizedPlan p = [] {
      ContractionTree tree = paper_tree();
      static CharacterizedModel model(characterize_itanium(16));
      OptimizerConfig cfg;
      cfg.mem_limit_node_bytes = kNodeLimit4GB;
      return optimize(tree, model, cfg);
    }();
    return p;
  }
};

TEST_F(Table2, FusesExactlyTheFLoopOnT1) {
  const IndexSpace& sp = [] {
    static FormulaSequence seq = parse_formula_sequence(kPaperProgram);
    return std::cref(seq.space());
  }();
  const ArrayReport& t1 = row(plan(), "T1");
  // Reduced to T1(b,c,d): the f dimension is fused away.
  EXPECT_EQ(t1.reduced.rank(), 3u);
  IndexSet reduced_set = t1.reduced.index_set();
  EXPECT_TRUE(reduced_set.contains(sp.id("b")));
  EXPECT_TRUE(reduced_set.contains(sp.id("c")));
  EXPECT_TRUE(reduced_set.contains(sp.id("d")));
  EXPECT_FALSE(reduced_set.contains(sp.id("f")));
  // The other arrays stay full.
  for (const char* name : {"A", "B", "C", "D", "T2", "S"}) {
    EXPECT_EQ(row(plan(), name).reduced.dims, row(plan(), name).full.dims)
        << name;
  }
}

TEST_F(Table2, MemoryPerNodeMatchesPaperExactly) {
  // Σ per-node: 460.8 + 61.44 + 30.72 + 230.4 + 108 + 230.4 + 230.4
  // paper-MB = 1,384,611,840 B (the paper's ≈1.35 GB/node).
  EXPECT_EQ(plan().bytes_per_node(), 1'384'611'840u);
  EXPECT_EQ(row(plan(), "T1").mem_per_node_bytes, 110'592'000u);  // 108MB
  EXPECT_EQ(row(plan(), "D").mem_per_node_bytes, 471'859'200u);   // 460.8MB
  EXPECT_EQ(row(plan(), "A").mem_per_node_bytes, 235'929'600u);   // 230.4MB
}

TEST_F(Table2, FixedArraysAreNotCommunicated) {
  // Paper: D is kept fixed in step 1 and T2 in step 2.
  EXPECT_EQ(*row(plan(), "D").comm_final_s, 0.0);
  EXPECT_EQ(*row(plan(), "T2").comm_initial_s, 0.0);
}

TEST_F(Table2, FusedT1RotationDominatesCommunication) {
  const ArrayReport& t1 = row(plan(), "T1");
  EXPECT_GT(*t1.comm_initial_s, 700.0);
  EXPECT_GT(*t1.comm_final_s, 700.0);
  const double t1_comm = *t1.comm_initial_s + *t1.comm_final_s;
  EXPECT_GT(t1_comm / plan().total_comm_s, 0.80);
}

TEST_F(Table2, TotalCommunicationNearPaper) {
  // Paper: 1907.8 s, 27.3% of 6983.8 s.  Communication is ~20x Table 1.
  EXPECT_NEAR(plan().total_comm_s, 1907.8, 450.0);
  EXPECT_NEAR(plan().comm_fraction(), 0.273, 0.06);
  EXPECT_NEAR(plan().total_runtime_s(), 6983.8, 900.0);
}

TEST_F(Table2, CounterIntuitiveTrendHolds) {
  // Fewer processors -> more fusion -> *more* communication (both in
  // absolute seconds and as a fraction of runtime).
  ContractionTree tree = paper_tree();
  CharacterizedModel m64(characterize_itanium(64));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  OptimizedPlan p64 = optimize(tree, m64, cfg);
  EXPECT_GT(plan().total_comm_s, 10.0 * p64.total_comm_s);
  EXPECT_GT(plan().comm_fraction(), 2.5 * p64.comm_fraction());
}

TEST_F(Table2, TableRendersAllRows) {
  FormulaSequence seq = parse_formula_sequence(kPaperProgram);
  const std::string table = plan().table(seq.space());
  for (const char* name : {"A", "B", "C", "D", "T1", "T2", "S"}) {
    EXPECT_NE(table.find(name), std::string::npos) << table;
  }
  EXPECT_NE(table.find("108.0MB"), std::string::npos) << table;
}

// ------------------------------------------------- overflow hardening

TEST(Optimizer, PaperScaleExtentsProduceExactByteCounts) {
  // 480^4-class rank-4 arrays on one processor: ~425 GB each.  Every
  // byte counter must come out exact — a silent 64-bit wrap anywhere in
  // the size math would be off by orders of magnitude here.
  FormulaSequence seq = parse_formula_sequence(
      "index a, b, c, d, e, f = 480\n"
      "T[a,b,e,f] = sum[c,d] X[a,b,c,d] * Y[c,d,e,f]");
  ContractionTree tree = ContractionTree::from_sequence(seq);
  AnalyticModel model(ProcGrid::make(1, 1), AnalyticParams{});
  OptimizedPlan plan = optimize(tree, model);
  const std::uint64_t arr = 480ull * 480 * 480 * 480 * 8;
  EXPECT_EQ(plan.array_bytes_per_proc, 3 * arr);  // X, Y and T resident
  EXPECT_GE(plan.peak_live_bytes_per_proc, 3 * arr);
}

TEST(Optimizer, OverflowingSizesThrowInsteadOfWrapping) {
  // Four indices of 2^16 multiply out to exactly 2^64 elements: one
  // past what fits.  The search must surface the overflow as a contract
  // violation, never wrap to a tiny (and feasible-looking) size.
  const auto run = [] {
    FormulaSequence seq = parse_formula_sequence(
        "index a, b, c, d, e, f = 65536\n"
        "T[a,b,e,f] = sum[c,d] X[a,b,c,d] * Y[c,d,e,f]");
    ContractionTree tree = ContractionTree::from_sequence(seq);
    AnalyticModel model(ProcGrid::make(1, 1), AnalyticParams{});
    optimize(tree, model);
  };
  EXPECT_THROW(run(), ContractViolation);
}

}  // namespace
}  // namespace tce
