// Tests for the common worker pool: batch completeness, barrier semantics,
// reuse across batches, the zero-worker and null-pool inline cases, exception
// propagation, re-entrant (nested) parallel_for calls, and submitters that
// help other batches while they wait.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace {

using mvcom::common::ThreadPool;

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, BarrierCompletesBeforeReturn) {
  // Every task's side effect must be visible to the caller on return —
  // that's the barrier contract the SE share point relies on.
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(513, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  // Workers are spawned once; submitting many batches must not leak, wedge,
  // or drop tasks.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.parallel_for(16, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200u * (16u * 17u / 2u));
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.parallel_for(8, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);

  // No pool at all: common::parallel_for runs every index on the caller,
  // in index order.
  std::vector<std::size_t> order;
  mvcom::common::parallel_for(nullptr, 8, [&](std::size_t i) {
    if (std::this_thread::get_id() != caller) all_inline = false;
    order.push_back(i);
  });
  EXPECT_TRUE(all_inline);
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, CallerParticipatesInTheBatch) {
  // With more tasks than workers, the submitting thread must claim work too
  // — otherwise a pool of Γ−1 workers could not advance Γ explorers at full
  // width. Worker-run tasks stall until the caller has claimed one (bounded
  // by a deadline), so the assertion cannot race against the lone worker
  // draining the whole batch before the caller gets scheduled.
  ThreadPool pool(1);
  std::atomic<int> caller_tasks{0};
  const auto caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pool.parallel_for(64, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      caller_tasks.fetch_add(1, std::memory_order_relaxed);
    } else {
      while (caller_tasks.load(std::memory_order_relaxed) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_GT(caller_tasks.load(), 0);
}

TEST(ThreadPoolTest, EmptyBatchIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, FirstExceptionIsRethrownAfterTheBarrier) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(32,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("task failed");
                          completed.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  // The barrier still ran the remaining tasks to completion.
  EXPECT_EQ(completed.load(), 31);
}

// --- Nesting -------------------------------------------------------------------

TEST(ThreadPoolNestingTest, TwoAndThreeLevelsRunEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kA = 5, kB = 6, kC = 7;
  std::vector<std::atomic<int>> two(kA * kB);
  pool.parallel_for(kA, [&](std::size_t a) {
    pool.parallel_for(kB, [&](std::size_t b) {
      two[a * kB + b].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < two.size(); ++i) {
    EXPECT_EQ(two[i].load(), 1) << "two-level index " << i;
  }

  std::vector<std::atomic<int>> three(kA * kB * kC);
  pool.parallel_for(kA, [&](std::size_t a) {
    pool.parallel_for(kB, [&](std::size_t b) {
      pool.parallel_for(kC, [&](std::size_t c) {
        three[(a * kB + b) * kC + c].fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  for (std::size_t i = 0; i < three.size(); ++i) {
    EXPECT_EQ(three[i].load(), 1) << "three-level index " << i;
  }
}

TEST(ThreadPoolNestingTest, ConcurrentNestedCallsFromOneOuterBatch) {
  // Both tasks of one outer batch submit a nested batch at the same time:
  // each waits (bounded by a deadline) until the other has started, so the
  // two nested batches are open together on the pool.
  ThreadPool pool(3);
  constexpr std::size_t kInner = 200;
  std::atomic<int> started{0};
  bool overlapped[2] = {false, false};
  std::atomic<std::uint64_t> sums[2] = {0, 0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pool.parallel_for(2, [&](std::size_t outer) {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (started.load(std::memory_order_acquire) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    overlapped[outer] = started.load(std::memory_order_acquire) == 2;
    pool.parallel_for(kInner, [&](std::size_t i) {
      sums[outer].fetch_add(i + 1, std::memory_order_relaxed);
    });
  });
  EXPECT_TRUE(overlapped[0] && overlapped[1]);
  for (const auto& sum : sums) {
    EXPECT_EQ(sum.load(), kInner * (kInner + 1) / 2);
  }
}

TEST(ThreadPoolNestingTest, ZeroWorkersNestInlineInOrder) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  pool.parallel_for(3, [&](std::size_t a) {
    pool.parallel_for(4, [&](std::size_t b) {
      if (std::this_thread::get_id() != caller) all_inline = false;
      order.emplace_back(a, b);
    });
  });
  EXPECT_TRUE(all_inline);
  ASSERT_EQ(order.size(), 12u);
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], std::make_pair(k / 4, k % 4)) << "position " << k;
  }
}

TEST(ThreadPoolNestingTest, NestedExceptionSurfacesAtTheNestedCall) {
  // A throw inside a nested body is rethrown by the nested parallel_for —
  // inside the outer task, which catches it — and the outer batch still
  // runs every task to completion without throwing itself.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8, kInner = 8;
  std::atomic<int> outer_done{0};
  std::atomic<int> caught{0};
  std::atomic<int> inner_done{0};
  EXPECT_NO_THROW(pool.parallel_for(kOuter, [&](std::size_t a) {
    try {
      pool.parallel_for(kInner, [&](std::size_t b) {
        if (a % 2 == 0 && b == 3) throw std::runtime_error("nested failed");
        inner_done.fetch_add(1, std::memory_order_relaxed);
      });
    } catch (const std::runtime_error&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
    outer_done.fetch_add(1, std::memory_order_relaxed);
  }));
  EXPECT_EQ(outer_done.load(), static_cast<int>(kOuter));
  EXPECT_EQ(caught.load(), static_cast<int>(kOuter / 2));
  // The failing nested batches still ran their other indices.
  EXPECT_EQ(inner_done.load(), static_cast<int>(kOuter * kInner - kOuter / 2));
}

// --- Helping wait -------------------------------------------------------------

/// Runs a two-index outer batch on `pool` (one worker) from the calling
/// thread. Whichever index the worker claims opens a nested batch of
/// `inner` indices; the caller's own index returns at once. Every nested
/// index the worker runs stalls (bounded by a deadline) until the caller
/// has run one, so the nested batch can only finish early if the caller —
/// whose outer indices are all claimed — helps with it.
void run_outer_with_nested(ThreadPool& pool, std::size_t inner,
                           const std::function<void(std::size_t)>& on_caller,
                           std::atomic<int>& caller_ran,
                           std::atomic<bool>& nested_threw) {
  const auto caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<bool> worker_entered{false};
  pool.parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      // Hold this index until the worker has claimed the other, so the
      // worker (not the caller) is the one that opens the nested batch.
      while (!worker_entered.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return;
    }
    worker_entered.store(true, std::memory_order_release);
    try {
      pool.parallel_for(inner, [&](std::size_t i) {
        if (std::this_thread::get_id() == caller) {
          caller_ran.fetch_add(1, std::memory_order_acq_rel);
          on_caller(i);
          return;
        }
        while (caller_ran.load(std::memory_order_acquire) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      });
    } catch (const std::runtime_error&) {
      nested_threw.store(true, std::memory_order_release);
    }
  });
}

TEST(ThreadPoolHelpingTest, SubmitterRunsTheNestedBatchItsWorkerOpened) {
  ThreadPool pool(1);
  std::atomic<int> caller_ran{0};
  std::atomic<bool> nested_threw{false};
  const auto start = std::chrono::steady_clock::now();
  run_outer_with_nested(pool, 64, [](std::size_t) {}, caller_ran,
                        nested_threw);
  EXPECT_GT(caller_ran.load(), 0);
  EXPECT_FALSE(nested_threw.load());
  // Helping, not the deadline, released the worker's stalled indices.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4));
}

TEST(ThreadPoolHelpingTest, HelpedExceptionIsRethrownOnlyByItsSubmitter) {
  // The caller throws from the nested index it helps with. The error
  // belongs to the nested batch: the worker's nested parallel_for rethrows
  // it (and the worker catches it), while the caller's outer parallel_for
  // completes without throwing.
  ThreadPool pool(1);
  std::atomic<int> caller_ran{0};
  std::atomic<bool> nested_threw{false};
  EXPECT_NO_THROW(run_outer_with_nested(
      pool, 64,
      [](std::size_t) { throw std::runtime_error("helped index failed"); },
      caller_ran, nested_threw));
  EXPECT_GT(caller_ran.load(), 0);
  EXPECT_TRUE(nested_threw.load());
}

TEST(ThreadPoolHelpingTest, ThreeDeepNestingWithHelpersFinishes) {
  // Uneven index costs at every level leave submitters waiting on claimed
  // indices while other batches still have unclaimed ones, so they help
  // across levels; every index still runs exactly once.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t kA = 4, kB = 5, kC = 6;
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<int>> hits(kA * kB * kC);
      pool.parallel_for(kA, [&](std::size_t a) {
        pool.parallel_for(kB, [&](std::size_t b) {
          pool.parallel_for(kC, [&](std::size_t c) {
            if ((a + b + c) % 3 == 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            hits[(a * kB + b) * kC + c].fetch_add(1,
                                                  std::memory_order_relaxed);
          });
        });
      });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "workers " << workers << ", round " << round << ", index "
            << i;
      }
    }
  }
}

}  // namespace
