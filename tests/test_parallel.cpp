// Tests for the parallel search machinery: the shared thread pool, the
// keyed Pareto frontier, the staircase root filter, and — the contract
// the whole PR rests on — bit-identical optimizer output at every
// thread count.  `OptimizerConfig::threads` may change wall times and
// nothing else.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "tce/common/thread_pool.hpp"
#include "tce/core/forest.hpp"
#include "tce/core/frontier.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/opmin/opmin.hpp"

#include "paper_workload.hpp"

namespace tce {
namespace {

using tce::testing::kNodeLimit4GB;
using tce::testing::paper_tree;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(100'000), ThreadPool::kMaxThreads);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;  // more chunks than threads
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool::shared().parallel_for(
      kN, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::shared().parallel_for(10, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronization needed: inline path
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> total{0};
  ThreadPool::shared().parallel_for(4, 4, [&](std::size_t) {
    ThreadPool::shared().parallel_for(
        8, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, RethrowsLowestFailingChunk) {
  // Chunk indices are claimed from an atomic cursor in ascending order,
  // so chunk 3 always executes (and fails) before 40 can be the lowest.
  const auto run = [](unsigned threads) {
    ThreadPool::shared().parallel_for(64, threads, [](std::size_t i) {
      if (i == 3 || i == 40) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
  };
  for (unsigned threads : {1u, 4u}) {
    try {
      run(threads);
      FAIL() << "expected throw at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoOpAtEveryThreadCount) {
  std::atomic<int> calls{0};
  for (unsigned threads : {0u, 1u, 8u}) {
    ThreadPool::shared().parallel_for(0, threads,
                                      [&](std::size_t) { ++calls; });
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ZeroThreadsRunsInlineInOrder) {
  // 0 is the "use hardware concurrency" knob and is resolved by
  // callers; an unresolved 0 reaching the pool must still cover every
  // index — it takes the sequential path, which is also what
  // resolve_threads(0) yields on a single-hardware-thread machine.
  std::vector<std::size_t> order;
  ThreadPool::shared().parallel_for(
      5, 0, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, MoreThreadsThanItemsCoversEachIndexOnce) {
  // Helper count is clamped to n-1; the surplus threads must not claim
  // (or double-run) anything.
  std::atomic<std::uint64_t> sum{0};
  ThreadPool::shared().parallel_for(
      3, 32, [&](std::size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6u);
}

// ------------------------------------------------------------ frontier

struct FEntry {
  int value = 0;
  std::uint64_t seq = 0;
};

// Weak dominance on one metric with the optimizer's seq tie-break:
// equal-on-every-metric entries are won by the earlier enumeration.
bool fdom(const FEntry& a, const FEntry& b) {
  return a.value < b.value || (a.value == b.value && a.seq < b.seq);
}

TEST(KeyedFrontier, InsertPrunesWithinKeyOnly) {
  KeyedFrontier<int, FEntry> f;
  std::uint64_t dominated = 0;
  auto dom = [](const FEntry& a, const FEntry& b) { return fdom(a, b); };
  f.insert(0, {5, 0}, dom, dominated);
  f.insert(1, {9, 1}, dom, dominated);  // worse, but different key
  f.insert(0, {7, 2}, dom, dominated);  // dominated by {5, 0}
  f.insert(0, {3, 3}, dom, dominated);  // evicts {5, 0}
  EXPECT_EQ(dominated, 2u);
  EXPECT_EQ(f.size(), 2u);
  const std::vector<FEntry> flat = std::move(f).flatten();
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].seq, 1u);  // flatten() sorts by seq
  EXPECT_EQ(flat[1].seq, 3u);
}

TEST(KeyedFrontier, TiesResolveToLowerSeq) {
  KeyedFrontier<int, FEntry> f;
  std::uint64_t dominated = 0;
  auto dom = [](const FEntry& a, const FEntry& b) { return fdom(a, b); };
  f.insert(0, {4, 0}, dom, dominated);
  f.insert(0, {4, 1}, dom, dominated);  // exact tie: earlier seq wins
  EXPECT_EQ(dominated, 1u);
  const std::vector<FEntry> flat = std::move(f).flatten();
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].seq, 0u);
}

TEST(KeyedFrontier, ChunkedMergeMatchesSequentialInsert) {
  // Deterministic pseudo-random entries (fixed LCG), four state keys.
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((state >> 33) % 16);
  };
  std::vector<std::pair<int, FEntry>> items;
  for (std::uint64_t s = 0; s < 200; ++s) {
    items.push_back({next() % 4, FEntry{next(), s}});
  }
  auto dom = [](const FEntry& a, const FEntry& b) { return fdom(a, b); };

  KeyedFrontier<int, FEntry> sequential;
  std::uint64_t dom_seq = 0;
  for (const auto& [key, e] : items) {
    sequential.insert(key, e, dom, dom_seq);
  }

  // Build per-chunk frontiers over contiguous seq ranges, merge them in
  // ascending chunk order — the optimizer's parallel shape.
  KeyedFrontier<int, FEntry> merged;
  std::uint64_t dom_par = 0;
  constexpr std::size_t kChunks = 7;
  for (std::size_t c = 0; c < kChunks; ++c) {
    KeyedFrontier<int, FEntry> chunk;
    const std::size_t begin = c * items.size() / kChunks;
    const std::size_t end = (c + 1) * items.size() / kChunks;
    for (std::size_t i = begin; i < end; ++i) {
      chunk.insert(items[i].first, items[i].second, dom, dom_par);
    }
    merged.merge(std::move(chunk), dom, dom_par);
  }

  EXPECT_EQ(dom_par, dom_seq);
  const std::vector<FEntry> a = std::move(sequential).flatten();
  const std::vector<FEntry> b = std::move(merged).flatten();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
  }
}

// --------------------------------------------------------- root filter

// Reference implementation: keep i unless some distinct j is weakly ≤
// on all coordinates and either strictly < somewhere or an exact
// duplicate with lower idx.
std::vector<std::uint32_t> brute_filter(
    const std::vector<FrontierPoint>& pts) {
  std::vector<std::uint32_t> kept;
  for (const FrontierPoint& p : pts) {
    bool dominated = false;
    for (const FrontierPoint& q : pts) {
      if (q.idx == p.idx) continue;
      if (q.cost > p.cost || q.metric > p.metric ||
          q.max_msg > p.max_msg) {
        continue;
      }
      const bool strict = q.cost < p.cost || q.metric < p.metric ||
                          q.max_msg < p.max_msg;
      if (strict || q.idx < p.idx) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(p.idx);
  }
  std::sort(kept.begin(), kept.end(), [&](std::uint32_t x,
                                          std::uint32_t y) {
    const FrontierPoint* a = nullptr;
    const FrontierPoint* b = nullptr;
    for (const FrontierPoint& p : pts) {
      if (p.idx == x) a = &p;
      if (p.idx == y) b = &p;
    }
    return std::tie(a->cost, a->metric, a->max_msg, a->idx) <
           std::tie(b->cost, b->metric, b->max_msg, b->idx);
  });
  return kept;
}

TEST(ParetoMinFilter, KeepsIncomparableDropsDominated) {
  const std::vector<FrontierPoint> pts = {
      {10.0, 100, 5, 0},  // frontier
      {12.0, 90, 5, 1},   // frontier (cheaper metric)
      {12.0, 100, 5, 2},  // dominated by 0
      {9.0, 120, 9, 3},   // frontier (cheapest cost)
      {13.0, 90, 6, 4},   // dominated by 1
  };
  EXPECT_EQ(pareto_min_filter(pts),
            (std::vector<std::uint32_t>{3, 0, 1}));
}

TEST(ParetoMinFilter, DuplicateTriplesCollapseToLowestIdx) {
  // Regression for the former all-pairs collapse, which kept an
  // unspecified duplicate (std::sort is not stable): exactly-equal
  // triples must keep the lowest idx, deterministically.
  const std::vector<FrontierPoint> pts = {
      {7.0, 50, 4, 5},
      {7.0, 50, 4, 2},
      {7.0, 50, 4, 9},
      {6.0, 80, 4, 1},  // incomparable with the duplicates
  };
  EXPECT_EQ(pareto_min_filter(pts), (std::vector<std::uint32_t>{1, 2}));
}

TEST(ParetoMinFilter, MatchesBruteForceOnTieHeavyInput) {
  // Small value ranges force many ties and duplicates.
  std::uint64_t state = 99;
  const auto next = [&state](std::uint64_t mod) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % mod;
  };
  std::vector<FrontierPoint> pts;
  for (std::uint32_t i = 0; i < 200; ++i) {
    pts.push_back({static_cast<double>(next(6)), next(5), next(4), i});
  }
  EXPECT_EQ(pareto_min_filter(pts), brute_filter(pts));
}

// -------------------------------------------------- search determinism

const CharacterizedModel& model16() {
  static CharacterizedModel model(characterize_itanium(16));
  return model;
}

// A root with two internal children, T1 and T2.  The paper program is a
// chain; here a parent reads two solved subtrees.
ContractionTree sibling_tree() {
  return ContractionTree::from_sequence(parse_formula_sequence(R"(
    index a, b, c, d = 48
    index i, j, k, l = 24
    index e, f = 24
    T1[a,b,i,j] = sum[c,d] V[a,b,c,d] * T[c,d,i,j]
    T2[i,j,e,f] = sum[k,l] W[i,j,k,l] * U[k,l,e,f]
    R[a,b,e,f]  = sum[i,j] T1[a,b,i,j] * T2[i,j,e,f]
  )"));
}

// Serializes a plan with the only thread-count-dependent quantities —
// wall times — zeroed out; everything else must be bit-identical.
std::string canonical_json(OptimizedPlan plan, const IndexSpace& space) {
  plan.stats.search_wall_s = 0;
  for (NodeSearchStats& n : plan.stats.nodes) n.wall_s = 0;
  return plan_to_json(plan, space);
}

TEST(ParallelSearch, PlanBitIdenticalAcrossThreadCounts) {
  for (const ContractionTree& tree : {paper_tree(), sibling_tree()}) {
    SCOPED_TRACE(tree.node(tree.root()).tensor.name);
    for (const bool replication : {false, true}) {
      OptimizerConfig cfg;
      cfg.mem_limit_node_bytes = kNodeLimit4GB;
      cfg.enable_replication_template = replication;
      cfg.threads = 1;
      const std::string want =
          canonical_json(optimize(tree, model16(), cfg), tree.space());
      for (const unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        EXPECT_EQ(canonical_json(optimize(tree, model16(), cfg),
                                 tree.space()),
                  want)
            << "threads=" << threads << " replication=" << replication;
      }
    }
  }
}

TEST(ParallelSearch, LivenessPlanBitIdenticalAcrossThreadCounts) {
  const ContractionTree tree = paper_tree();
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 1'600'000'000;  // tight: fusion forced
  cfg.liveness_aware = true;
  cfg.threads = 1;
  const std::string want =
      canonical_json(optimize(tree, model16(), cfg), tree.space());
  for (const unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    EXPECT_EQ(
        canonical_json(optimize(tree, model16(), cfg), tree.space()),
        want)
        << "threads=" << threads;
  }
}

TEST(ParallelSearch, FrontierIdenticalAcrossThreadCounts) {
  const ContractionTree tree = paper_tree();
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.threads = 1;
  const std::vector<OptimizedPlan> want =
      optimize_frontier(tree, model16(), cfg);
  ASSERT_FALSE(want.empty());
  for (const unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const std::vector<OptimizedPlan> got =
        optimize_frontier(tree, model16(), cfg);
    ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(canonical_json(got[i], tree.space()),
                canonical_json(want[i], tree.space()))
          << "threads=" << threads << " frontier[" << i << "]";
    }
  }
}

TEST(ParallelSearch, StatsCountersThreadInvariant) {
  for (const ContractionTree& tree : {paper_tree(), sibling_tree()}) {
    for (const bool replication : {false, true}) {
      SCOPED_TRACE(tree.node(tree.root()).tensor.name +
                   (replication ? ", replication" : ", Cannon only"));
      OptimizerConfig cfg;
      cfg.mem_limit_node_bytes = kNodeLimit4GB;
      cfg.enable_replication_template = replication;
      cfg.threads = 1;
      const OptimizerStats s1 = optimize(tree, model16(), cfg).stats;
      cfg.threads = 8;
      const OptimizerStats s8 = optimize(tree, model16(), cfg).stats;
      EXPECT_EQ(s8.candidates, s1.candidates);
      EXPECT_EQ(s8.infeasible, s1.infeasible);
      EXPECT_EQ(s8.dominated, s1.dominated);
      EXPECT_EQ(s8.bounded, s1.bounded);
      EXPECT_EQ(s8.kept, s1.kept);
      EXPECT_EQ(s8.max_per_node, s1.max_per_node);
      EXPECT_EQ(s8.redistributions, s1.redistributions);
      EXPECT_EQ(s8.table_lookups, s1.table_lookups);
      EXPECT_EQ(s8.extrapolations, s1.extrapolations);
      ASSERT_EQ(s8.nodes.size(), s1.nodes.size());
      for (std::size_t i = 0; i < s1.nodes.size(); ++i) {
        EXPECT_EQ(s8.nodes[i].node, s1.nodes[i].node) << i;
        EXPECT_EQ(s8.nodes[i].candidates, s1.nodes[i].candidates) << i;
        EXPECT_EQ(s8.nodes[i].bounded, s1.nodes[i].bounded) << i;
        EXPECT_EQ(s8.nodes[i].kept, s1.nodes[i].kept) << i;
      }
    }
  }
}

TEST(ParallelSearch, ForestPlanIdenticalAcrossThreadCounts) {
  // Two independent trees, planned in program order, each fanning out
  // within its nodes; the combined plan must not depend on the thread
  // count.
  ParsedProgram program = parse_program(R"(
    index i, j, k, l = 24
    index a, b, c, d = 48
    R1[a,b,i,j] = sum[c,d] V[a,b,c,d] * T[c,d,i,j]
    R2[a,b,i,j] = sum[k,l] W[k,l,i,j] * U[a,b,k,l]
  )");
  FormulaSequence seq =
      binarize_program(program, "tmp", /*allow_forest=*/true);
  const ContractionForest forest = ContractionForest::from_sequence(seq);
  ASSERT_EQ(forest.trees.size(), 2u);

  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.threads = 1;
  const ForestPlan want = optimize_forest(forest, model16(), cfg);
  for (const unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const ForestPlan got = optimize_forest(forest, model16(), cfg);
    EXPECT_EQ(got.total_comm_s, want.total_comm_s);
    ASSERT_EQ(got.plans.size(), want.plans.size());
    for (std::size_t t = 0; t < want.plans.size(); ++t) {
      EXPECT_EQ(canonical_json(got.plans[t], forest.trees[t].space()),
                canonical_json(want.plans[t], forest.trees[t].space()))
          << "threads=" << threads << " tree=" << t;
    }
  }
}

TEST(ParallelSearch, VerifyPlansStressAtEightThreads) {
  // TCE_VERIFY_PLANS re-derives every plan invariant after the search;
  // running it over the parallel path is the cheap end-to-end race
  // detector (any nondeterminism shows up as a verifier diagnostic).
  setenv("TCE_VERIFY_PLANS", "1", 1);
  const ContractionTree tree = paper_tree();
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = kNodeLimit4GB;
  cfg.enable_replication_template = true;
  cfg.threads = 8;
  EXPECT_NO_THROW(optimize(tree, model16(), cfg));
  unsetenv("TCE_VERIFY_PLANS");
}

}  // namespace
}  // namespace tce
