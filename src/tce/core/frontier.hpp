#pragma once
/// \file frontier.hpp
/// Pareto-frontier data structures for the DP search.
///
/// KeyedFrontier replaces the optimizer's former flat per-node
/// std::vector<Sol>: partial solutions only ever compete for dominance
/// within the same (distribution, fusion) state, so the frontier keeps
/// one small vector per state key and an insert scans a handful of
/// same-key entries instead of every solution at the node.
///
/// Determinism contract.  Each entry carries a *sequence number* — its
/// position in the canonical sequential enumeration order of the node.
/// Dominance ties (entries equal on every compared metric) are resolved
/// toward the lower sequence number.  That makes the surviving set the
/// unique maximal set of a strict partial order, so it is independent
/// of insertion grouping: building per-chunk frontiers in parallel and
/// merging them in ascending chunk order yields bit-identical survivors
/// to a flat sequential pass.  flatten() returns survivors sorted by
/// sequence number — exactly the vector the sequential search built.
///
/// pareto_min_filter is the root-level global filter over
/// (cost, memory metric, largest message): a sort plus a monotone
/// staircase sweep, O(n log n) instead of the former all-pairs scan,
/// with exact-triple duplicates collapsed onto the lowest-index
/// representative (the former post-sort adjacent collapse kept an
/// unspecified one — std::sort is not stable).

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace tce {

/// Bucketed Pareto frontier; see file comment.  Key must be
/// strict-weak-ordered; Entry must expose `std::uint64_t seq`.
/// Dominance is supplied per call: dom(a, b) must return true when a
/// weakly dominates b (ties allowed) and be transitive.
///
/// Concurrency: not thread-safe, deliberately — instances are
/// thread-confined by construction.  The parallel search builds one
/// frontier per work chunk inside its worker, then merge()s the
/// chunks in ascending order on the coordinating thread after the
/// parallel_for barrier (optimizer.cpp), so no two threads ever touch
/// the same instance and no lock is needed.  Shared mutable state
/// lives behind annotated mutexes instead (tce/common/annotations.hpp).
template <typename Key, typename Entry>
class KeyedFrontier {
 public:
  /// Inserts \p e unless an existing same-key entry weakly dominates
  /// it; otherwise erases same-key entries it strictly-or-tie beats.
  /// Callers must insert in ascending seq order (existing entries win
  /// ties, so earlier seq must already be present).  Every rejection
  /// and eviction increments *\p dominated once.
  template <typename Dom>
  void insert(const Key& key, Entry e, const Dom& dom,
              std::uint64_t& dominated) {
    std::vector<Entry>& bucket = buckets_[key];
    for (const Entry& t : bucket) {
      if (dom(t, e)) {
        ++dominated;
        return;
      }
    }
    std::erase_if(bucket, [&](const Entry& t) {
      if (dom(e, t)) {
        ++dominated;
        return true;
      }
      return false;
    });
    bucket.push_back(std::move(e));
  }

  /// Folds \p other in (bucket by bucket; entries of one bucket are
  /// re-inserted in their stored order).  Correct when every entry of
  /// \p other has a higher seq than every entry already present in the
  /// same bucket — i.e. merge chunk frontiers in ascending chunk
  /// order.
  template <typename Dom>
  void merge(KeyedFrontier&& other, const Dom& dom,
             std::uint64_t& dominated) {
    for (auto& [key, bucket] : other.buckets_) {
      auto it = buckets_.find(key);
      if (it == buckets_.end()) {
        buckets_.emplace(key, std::move(bucket));
        continue;
      }
      for (Entry& e : bucket) {
        insert(key, std::move(e), dom, dominated);
      }
    }
    other.buckets_.clear();
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [key, bucket] : buckets_) n += bucket.size();
    return n;
  }

  bool empty() const { return buckets_.empty(); }

  /// All survivors in ascending seq order — the canonical per-node
  /// solution vector (identical to what sequential flat insertion in
  /// seq order would have left, in the same order).
  std::vector<Entry> flatten() && {
    std::vector<Entry> out;
    out.reserve(size());
    for (auto& [key, bucket] : buckets_) {
      for (Entry& e : bucket) out.push_back(std::move(e));
    }
    buckets_.clear();
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    return out;
  }

 private:
  std::map<Key, std::vector<Entry>> buckets_;
};

/// One point of the root frontier, in filter coordinates.  `idx` is the
/// point's position in the caller's array (= enumeration order there).
struct FrontierPoint {
  double cost = 0;
  std::uint64_t metric = 0;
  std::uint64_t max_msg = 0;
  std::uint32_t idx = 0;
};

/// Minimizing Pareto filter over (cost, metric, max_msg) with duplicate
/// collapse: returns the indices of points not weakly dominated by a
/// distinct point (strict in at least one coordinate), keeping exactly
/// one representative — the lowest idx — of every exactly-equal triple.
/// Output is sorted by (cost, metric, max_msg, idx) ascending.
/// O(n log n).
std::vector<std::uint32_t> pareto_min_filter(
    std::vector<FrontierPoint> points);

}  // namespace tce
