#pragma once
/// \file thread_pool.hpp
/// A shared work-claiming thread pool for the planner and the kernels.
///
/// The pool exists so the optimizer can fan the candidates of one DP
/// node across cores without ever changing the result: callers split
/// their work into *chunks with stable indices*, workers (plus the
/// calling thread) claim chunk indices from a shared atomic cursor —
/// dynamic load balancing with no per-chunk ownership — and the caller
/// combines the per-chunk outputs in index order afterwards.  Which
/// thread executed which chunk is invisible to the merged result.
///
/// One primitive, parallel_for(n, threads, fn): run fn(i) for i in
/// [0, n).  The calling thread always participates, so the call makes
/// progress even when every worker is busy (nested use from inside a
/// pool task is fine and cannot deadlock).  The first exception, by
/// lowest chunk index, is rethrown — deterministically, regardless of
/// which chunks ran concurrently.
///
/// `threads <= 1` bypasses the pool entirely and runs inline on the
/// caller — the exact sequential path, no threads touched.

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "tce/common/annotations.hpp"

namespace tce {

class ThreadPool {
 public:
  /// Upper bound on pool workers; requests beyond it are clamped.
  static constexpr unsigned kMaxThreads = 64;

  /// The process-wide pool.  Workers are spawned lazily, on first use,
  /// and grown on demand up to kMaxThreads - 1; they are joined at
  /// process exit.
  static ThreadPool& shared();

  /// Resolves a thread-count knob: 0 means hardware concurrency (at
  /// least 1), anything else is clamped to [1, kMaxThreads].
  static unsigned resolve_threads(unsigned requested) noexcept;

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n) using at most \p threads threads
  /// including the caller.  Blocks until every index has finished.  If
  /// any invocation throws, the exception of the lowest-index failing
  /// chunk is rethrown after all claimed chunks settle (unclaimed
  /// chunks are skipped once a failure is seen).
  void parallel_for(std::size_t n, unsigned threads,
                    const std::function<void(std::size_t)>& fn);

 private:
  ThreadPool() = default;
  void ensure_workers(unsigned want);
  void enqueue(std::function<void()> job);
  void worker_loop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> jobs_ TCE_GUARDED_BY(mu_);
  /// Grown only under mu_; the destructor joins without the lock, which
  /// the analysis permits (destructors run single-threaded by contract).
  std::vector<std::thread> workers_ TCE_GUARDED_BY(mu_);
  bool stop_ TCE_GUARDED_BY(mu_) = false;
};

}  // namespace tce
