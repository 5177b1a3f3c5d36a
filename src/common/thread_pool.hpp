#pragma once
// A small fixed-size worker pool for barrier-style data parallelism — the
// execution substrate behind the SE scheduler's Γ "distributed parallel
// execution threads" (paper §IV-D), the Elastico epoch's per-committee
// simulator lanes (DESIGN.md §12), the serve pipeline's stage overlap
// (DESIGN.md §13), and any other fork/join hot path. Neither the scheduler
// nor the network owns a pool: the caller lends one to each.
//
// Design:
//  * N workers are spawned once at construction and live for the pool's
//    lifetime — no per-batch thread spawn on the hot path.
//  * parallel_for(n, body) submits one batch of n index-tasks. Workers and
//    the CALLING thread claim indices from the batch's atomic cursor, so the
//    caller is never idle while work remains, and a pool with zero workers
//    degenerates to an inline loop (handy for single-core hosts and for
//    keeping a single code path in callers).
//  * The call is a barrier: it returns only after every index has executed.
//  * Exceptions thrown by the body are captured; the first one is rethrown
//    from parallel_for after the barrier.
//
// Nesting: parallel_for is re-entrant. A body may call parallel_for on the
// same pool (the serve pipeline does twice: stage A grinds its committees'
// PoW in chunks, stage B steps the SE explorers), and several threads may
// submit at once. The pool keeps the open batches in submission order; an
// idle worker claims from the newest one that still has unclaimed indices.
// Each submitter drains its own batch. Until the indices other threads
// claimed complete, it helps instead of sleeping: it runs single indices of
// other open batches (newest first), re-checking its own after each, and
// sleeps only when nothing is left to claim. The thread that finished
// stage B therefore grinds stage A's chunks too. Every index a submitter
// waits on is running somewhere, and each index it helps with was opened
// after the frames below it started, so no two threads can wait on each
// other and nesting cannot deadlock. An exception in a helped index is
// captured in its own batch and rethrown only by that batch's submitter.
// When every worker is busy a nested call simply runs inline on its
// submitter.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mvcom::common {

class ThreadPool {
 public:
  /// Spawns `workers` threads. Zero is valid: every batch then runs inline
  /// on the submitting thread.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept {
    return threads_.size();
  }

  /// Runs body(0), …, body(n−1) across the workers plus the calling thread
  /// and returns once all n calls have completed (barrier-style wait). May
  /// be called from inside another batch's body.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Batch;

  void worker_loop();
  /// Newest open batch with an unclaimed index, or null. Caller holds mutex_.
  [[nodiscard]] std::shared_ptr<Batch> claimable() const;
  /// Claims and runs one index of `batch`; false when none was left.
  static bool run_one(Batch& batch);
  static void drain(Batch& batch);  // run_one until none is left
  /// Wakes the submitters if `batch` has completed.
  void finish(const Batch& batch);

  std::mutex mutex_;
  std::condition_variable wake_;  // signals workers: new batch / shutdown
  // Signals submitters: a batch completed, or one opened that they can help.
  std::condition_variable done_;
  std::vector<std::shared_ptr<Batch>> open_;  // submission order, mutex_
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// Runs body(0), …, body(n−1) on `pool` when one is lent, or in index order
/// on the calling thread when `pool` is null — the one branch callers that
/// take a nullable pool need.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t n, F&& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace mvcom::common
