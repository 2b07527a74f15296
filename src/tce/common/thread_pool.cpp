#include "tce/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace tce {

namespace {

/// Shared state of one parallel_for call.  Chunk indices are claimed
/// from `next`; `done` counts settled chunks (executed or skipped after
/// a failure).  Per-chunk exceptions are kept by index so the rethrow
/// is deterministic no matter which thread hit which chunk.
struct ForState {
  explicit ForState(std::size_t n_) : n(n_), errors(n_) {}

  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  /// errors[i] is written by exactly one thread (the claimer of chunk i)
  /// and read only after every chunk settled, so it needs no guard.
  std::vector<std::exception_ptr> errors;
  Mutex mu;
  CondVar cv;
  std::size_t done TCE_GUARDED_BY(mu) = 0;

  void drain(const std::function<void(std::size_t)>& fn) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      const MutexLock lock(mu);
      if (++done == n) cv.notify_all();
    }
  }
};

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

unsigned ThreadPool::resolve_threads(unsigned requested) noexcept {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : std::min(hw, kMaxThreads);
  }
  return std::min(requested, kMaxThreads);
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ensure_workers(unsigned want) {
  const MutexLock lock(mu_);
  while (workers_.size() < want && workers_.size() < kMaxThreads - 1) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const MutexLock lock(mu_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      const MutexLock lock(mu_);
      while (!stop_ && jobs_.empty()) cv_.wait(mu_);
      if (jobs_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n, unsigned threads,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    // Exact sequential path: no pool, no state, in index order.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const unsigned helpers = static_cast<unsigned>(
      std::min<std::size_t>(n - 1, std::min(threads, kMaxThreads) - 1));
  ensure_workers(helpers);
  auto state = std::make_shared<ForState>(n);
  for (unsigned h = 0; h < helpers; ++h) {
    enqueue([state, fn] { state->drain(fn); });
  }
  state->drain(fn);  // the caller participates — guaranteed progress
  {
    const MutexLock lock(state->mu);
    while (state->done != state->n) state->cv.wait(state->mu);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (state->errors[i]) std::rethrow_exception(state->errors[i]);
  }
}

}  // namespace tce
