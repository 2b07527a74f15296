// Tests for tce/simnet: max–min fair allocation and the flow-level
// network simulator.

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <random>

#include "tce/obs/metrics.hpp"
#include "tce/simnet/maxmin.hpp"
#include "tce/simnet/network.hpp"

namespace tce {
namespace {

// ------------------------------------------------------------- maxmin

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  auto rates = maxmin_fair_rates({{0}}, {10.0});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
}

TEST(MaxMin, EqualShareOnOneResource) {
  auto rates = maxmin_fair_rates({{0}, {0}, {0}, {0}}, {8.0});
  for (double r : rates) EXPECT_NEAR(r, 2.0, 1e-9);
}

TEST(MaxMin, ClassicTandemExample) {
  // Flow A crosses both links; flow B crosses link 0; flow C crosses
  // link 1.  Capacities 1 each: A is bottlenecked at 0.5 on both; B and C
  // then fill their links to 0.5.  With capacities {1, 2}: A=0.5, B=0.5,
  // C=1.5.
  auto rates = maxmin_fair_rates({{0, 1}, {0}, {1}}, {1.0, 2.0});
  EXPECT_NEAR(rates[0], 0.5, 1e-9);
  EXPECT_NEAR(rates[1], 0.5, 1e-9);
  EXPECT_NEAR(rates[2], 1.5, 1e-9);
}

TEST(MaxMin, UnboundedFlowGetsSentinelRate) {
  auto rates = maxmin_fair_rates({{}, {0}}, {4.0});
  EXPECT_GT(rates[0], 1e29);
  EXPECT_NEAR(rates[1], 4.0, 1e-9);
}

// Property sweep: random flow/resource topologies satisfy (a) capacity
// conservation, (b) every flow is bottlenecked (its rate cannot be raised
// without exceeding some saturated resource's capacity).
class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, FairnessInvariants) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t nr = 2 + rng() % 6;
  const std::size_t nf = 1 + rng() % 12;
  std::vector<double> caps(nr);
  for (auto& c : caps) c = 1.0 + static_cast<double>(rng() % 100);
  std::vector<ResourcePath> paths(nf);
  for (auto& p : paths) {
    const std::size_t len = 1 + rng() % 3;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t r = static_cast<std::uint32_t>(rng() % nr);
      bool dup = false;
      for (std::uint32_t q : p) dup = dup || (q == r);
      if (!dup) p.push_back(r);
    }
  }

  const auto rates = maxmin_fair_rates(paths, caps);

  // (a) conservation.
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint32_t r : paths[f]) used[r] += rates[f];
  }
  for (std::size_t r = 0; r < nr; ++r) {
    EXPECT_LE(used[r], caps[r] * (1 + 1e-6));
  }

  // (b) bottleneck property: every flow crosses a saturated resource on
  // which it has the (weakly) largest rate.
  for (std::size_t f = 0; f < nf; ++f) {
    bool bottlenecked = false;
    for (std::uint32_t r : paths[f]) {
      if (used[r] < caps[r] * (1 - 1e-6)) continue;  // not saturated
      double max_rate_here = 0.0;
      for (std::size_t g = 0; g < nf; ++g) {
        for (std::uint32_t q : paths[g]) {
          if (q == r) max_rate_here = std::max(max_rate_here, rates[g]);
        }
      }
      if (rates[f] >= max_rate_here * (1 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinProperty,
                         ::testing::Range(0, 25));

// ------------------------------------------------------------- network

ClusterSpec tiny_spec() {
  ClusterSpec s;
  s.nodes = 4;
  s.procs_per_node = 2;
  s.nic_bw = 100.0;  // bytes/s — tiny numbers keep arithmetic exact
  s.mem_bw = 1000.0;
  s.latency_s = 0.5;
  s.flops_per_proc = 10.0;
  return s;
}

TEST(Network, SingleInterNodeFlow) {
  Network net(tiny_spec());
  // Ranks are cyclic across nodes: rank 0 -> node 0, rank 1 -> node 1.
  auto r = net.run_flows({{0, 1, 200}});
  EXPECT_NEAR(r.makespan_s, 0.5 + 200.0 / 100.0, 1e-9);
}

TEST(Network, IntraNodeFlowUsesMemoryBandwidth) {
  Network net(tiny_spec());
  // Ranks 0 and 4 are both on node 0 (cyclic layout with 4 nodes).
  auto r = net.run_flows({{0, 4, 200}});
  EXPECT_NEAR(r.makespan_s, 0.5 + 200.0 / 1000.0, 1e-9);
}

TEST(Network, SendersOnOneNodeShareTheNic) {
  Network net(tiny_spec());
  // Ranks 0 and 4 (node 0) both send to distinct remote nodes.
  auto r = net.run_flows({{0, 1, 100}, {4, 2, 100}});
  EXPECT_NEAR(r.finish_s[0], 0.5 + 100.0 / 50.0, 1e-9);
  EXPECT_NEAR(r.finish_s[1], 0.5 + 100.0 / 50.0, 1e-9);
}

TEST(Network, ReceiversOnOneNodeShareTheNicIn) {
  Network net(tiny_spec());
  auto r = net.run_flows({{1, 0, 100}, {2, 4, 100}});  // both into node 0
  EXPECT_NEAR(r.finish_s[0], 0.5 + 100.0 / 50.0, 1e-9);
  EXPECT_NEAR(r.finish_s[1], 0.5 + 100.0 / 50.0, 1e-9);
}

TEST(Network, ShortFlowFinishesFirstThenLongSpeedsUp) {
  Network net(tiny_spec());
  // Same src node, one short one long: share 50/50 until the short one
  // drains, then the long one gets the full NIC.
  auto r = net.run_flows({{0, 1, 50}, {4, 2, 150}});
  EXPECT_NEAR(r.finish_s[0], 0.5 + 1.0, 1e-9);           // 50 B at 50 B/s
  EXPECT_NEAR(r.finish_s[1], 0.5 + 1.0 + 1.0, 1e-9);     // then 100 at 100
}

TEST(Network, BisectionCapsAggregate) {
  ClusterSpec s = tiny_spec();
  s.bisection_bw = 100.0;  // all inter-node traffic shares 100 B/s
  Network net(s);
  // Four disjoint node pairs, 100 B each: without the cap each runs at
  // 100 B/s (1 s); with it they share 25 B/s each.
  auto r = net.run_flows({{0, 1, 100}, {2, 3, 100}});
  EXPECT_NEAR(r.makespan_s, 0.5 + 100.0 / 50.0, 1e-9);
}

TEST(Network, ZeroByteFlowCostsLatencyOnly) {
  Network net(tiny_spec());
  auto r = net.run_flows({{0, 1, 0}});
  EXPECT_NEAR(r.makespan_s, 0.5, 1e-12);
}

TEST(Network, EmptyFlowSetHasZeroMakespan) {
  Network net(tiny_spec());
  EXPECT_EQ(net.run_flows({}).makespan_s, 0.0);
}

TEST(Network, RejectsOutOfRangeRanks) {
  Network net(tiny_spec());
  EXPECT_THROW(net.run_flows({{0, 99, 10}}), ContractViolation);
}

TEST(Network, PhaseAddsComputeAndCommunication) {
  Network net(tiny_spec());
  Phase p;
  p.flows = {{0, 1, 200}};                   // 0.5 + 2.0 s
  p.compute = {{0, 30}, {1, 50}, {2, 20}};   // max = 5.0 s at 10 flop/s
  PhaseResult r = net.run_phase(p);
  EXPECT_NEAR(r.comm_s, 2.5, 1e-9);
  EXPECT_NEAR(r.compute_s, 5.0, 1e-9);
  EXPECT_NEAR(r.total_s(), 7.5, 1e-9);
}

TEST(Network, PhasesAccumulate) {
  Network net(tiny_spec());
  Phase p;
  p.flows = {{0, 1, 100}};
  p.compute = {{0, 10}};
  PhaseResult r = net.run_phases({p, p, p});
  EXPECT_NEAR(r.comm_s, 3 * 1.5, 1e-9);
  EXPECT_NEAR(r.compute_s, 3 * 1.0, 1e-9);
}

TEST(Network, SelfFlowCrossesTheMemoryEngine) {
  // A self-flow is an intra-node transfer like any other: latency plus
  // its bytes at the node's memory bandwidth.
  Network net(tiny_spec());
  EXPECT_NEAR(net.run_flows({{3, 3, 200}}).makespan_s, 0.5 + 200.0 / 1000.0,
              1e-9);
}

TEST(Network, RepeatedPhaseEqualsRunPhasesOverCopies) {
  // A phase run n times must cost bit for bit what n copies cost, comm
  // and compute, at values whose running sums round.
  Network net(ClusterSpec::itanium2003(8));
  Phase p;
  for (std::uint32_t r = 0; r < 16; ++r) {
    p.flows.push_back({r, (r + 5) % 16, 1'234'567 + 1'000 * r});
    p.compute.push_back({r, 987'654'321 + 7 * r});
  }
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 7u, 16u}) {
    const PhaseResult repeated = net.run_phase(p, n);
    const PhaseResult copies = net.run_phases(std::vector<Phase>(n, p));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(repeated.comm_s),
              std::bit_cast<std::uint64_t>(copies.comm_s))
        << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(repeated.compute_s),
              std::bit_cast<std::uint64_t>(copies.compute_s))
        << n;
  }
}

TEST(Network, RepeatedPhaseIsSimulatedOnce) {
  // simnet.* counts simulated phases and flows, not their repeats.
  obs::metrics_reset();
  obs::metrics_enable(true);
  Network net(tiny_spec());
  Phase p;
  p.flows = {{0, 1, 100}, {2, 3, 100}};
  net.run_phase(p, 5);
  EXPECT_EQ(obs::counter_value("simnet.phases"), 1u);
  EXPECT_EQ(obs::counter_value("simnet.flows"), 2u);
  obs::metrics_enable(false);
  obs::metrics_reset();
}

// Ring-shift sanity: all ranks shifting simultaneously along a ring see
// per-node NIC sharing; doubling message size doubles the transfer term.
TEST(Network, RingShiftScalesLinearlyInBytes) {
  ClusterSpec s = ClusterSpec::itanium2003(8);
  Network net(s);
  auto ring = [&](std::uint64_t bytes) {
    std::vector<Flow> flows;
    const std::uint32_t p = s.procs();
    for (std::uint32_t r = 0; r < p; ++r) {
      flows.push_back({r, (r + 1) % p, bytes});
    }
    return net.run_flows(flows).makespan_s;
  };
  const double t1 = ring(1'000'000);
  const double t2 = ring(2'000'000);
  EXPECT_NEAR(t2 - s.latency_s, 2.0 * (t1 - s.latency_s), 1e-6 * t2);
}

// Calibration check: a 16-rank ring shift of the Table 2 T1 block size
// (55.3 MB) should take roughly the paper's ≈3.5 s per step.
TEST(Network, CalibrationMatchesPaperScale) {
  ClusterSpec s = ClusterSpec::itanium2003(8);
  Network net(s);
  std::vector<Flow> flows;
  for (std::uint32_t r = 0; r < 16; ++r) {
    flows.push_back({r, (r + 1) % 16, 55'296'000});
  }
  const double t = net.run_flows(flows).makespan_s;
  EXPECT_GT(t, 2.5);
  EXPECT_LT(t, 5.5);
}

}  // namespace
}  // namespace tce
