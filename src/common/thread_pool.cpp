#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace mvcom::common {

struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t size = 0;
  std::atomic<std::size_t> next{0};       // claim cursor
  std::atomic<std::size_t> completed{0};  // finished-task count
  std::once_flag error_once;
  std::exception_ptr error;  // first exception thrown by any body call
};

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::claimable() const {
  // Newest first: a nested batch is what its (blocked) submitter's outer
  // task is waiting on, so finishing it first shortens every barrier above.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if ((*it)->next.load(std::memory_order_relaxed) < (*it)->size) return *it;
  }
  return nullptr;
}

bool ThreadPool::run_one(Batch& batch) {
  const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= batch.size) return false;
  try {
    (*batch.body)(i);
  } catch (...) {
    std::call_once(batch.error_once,
                   [&batch] { batch.error = std::current_exception(); });
  }
  // Release so the submitter's acquire load of `completed` also sees any
  // captured error before rethrowing.
  batch.completed.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

void ThreadPool::drain(Batch& batch) {
  while (run_one(batch)) {
  }
}

void ThreadPool::finish(const Batch& batch) {
  if (batch.completed.load(std::memory_order_acquire) == batch.size) {
    // Lock before notifying so the submitter cannot miss the wakeup
    // between its predicate check and its wait.
    const std::lock_guard<std::mutex> lock(mutex_);
    done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;  // keeps the batch alive past its barrier
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        if (stopping_) return true;
        batch = claimable();
        return batch != nullptr;
      });
      if (stopping_) return;
    }
    drain(*batch);
    finish(*batch);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->size = n;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(batch);
  }
  // Wake only as many workers as there are tasks beyond the submitter's own:
  // for small batches on a big pool the rest stay asleep. A notify that
  // finds no sleeper (every worker busy, e.g. under a nested call) is never
  // lost work — workers re-check the open batches before they sleep again.
  const std::size_t to_wake = std::min(threads_.size(), n - 1);
  if (to_wake == threads_.size()) {
    wake_.notify_all();
  } else {
    for (std::size_t i = 0; i < to_wake; ++i) wake_.notify_one();
  }
  // Submitters waiting on their own claimed indices help with new work too.
  done_.notify_all();
  drain(*batch);  // the submitting thread participates in the batch
  {
    // Every index is claimed now, so the batch leaves the open list. Until
    // the indices other threads are still running complete, help: run single
    // indices of other open batches, re-checking this one after each.
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), batch));
    for (;;) {
      std::shared_ptr<Batch> other;
      done_.wait(lock, [&] {
        if (batch->completed.load(std::memory_order_acquire) == batch->size) {
          return true;
        }
        other = claimable();
        return other != nullptr;
      });
      if (other == nullptr) break;  // this batch completed
      lock.unlock();
      if (run_one(*other)) finish(*other);
      lock.lock();
    }
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace mvcom::common
