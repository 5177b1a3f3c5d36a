// Tests for the discrete-event simulation kernel.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace {

using mvcom::common::SimTime;
using mvcom::sim::EventId;
using mvcom::sim::Simulator;

TEST(SimTimeTest, ArithmeticAndComparisons) {
  constexpr SimTime a(2.0);
  constexpr SimTime b(3.5);
  static_assert((a + b).seconds() == 5.5);
  static_assert((b - a).seconds() == 1.5);
  static_assert((2.0 * a).seconds() == 4.0);
  static_assert(a < b);
  static_assert(SimTime::zero() < a);
  SimTime c = a;
  c += b;
  EXPECT_DOUBLE_EQ(c.seconds(), 5.5);
  c -= a;
  EXPECT_DOUBLE_EQ(c.seconds(), 3.5);
}

TEST(SimTimeTest, InfinitySemantics) {
  constexpr SimTime never = SimTime::infinity();
  static_assert(never.is_infinite());
  static_assert(!SimTime(1e18).is_infinite());
  EXPECT_GT(never, SimTime(1e300));
  // Infinity absorbs addition — a failed committee's ping never returns.
  EXPECT_TRUE((never + SimTime(5.0)).is_infinite());
}

TEST(SimulatorTest, ExecutesInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(3.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 3.0);
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(SimTime(5.0), [&] {
    sim.schedule_after(SimTime(2.0), [&] { fired_at = sim.now().seconds(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime(10.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime(5.0), [] {}), std::logic_error);
}

// NaN compares false with everything, so a plain `at < now` check lets it
// through; the kernel must refuse it, and the clock must stay a number.
TEST(SimulatorTest, SchedulingAtNanThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(SimTime(std::nan("")), [] {}),
               std::logic_error);
  EXPECT_TRUE(sim.empty());
  sim.schedule_at(SimTime(1.0), [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 1.0);
}

TEST(SimulatorTest, SchedulingAfterNanDelayThrows) {
  Simulator sim;
  sim.schedule_at(SimTime(2.0), [&sim] {
    EXPECT_THROW(sim.schedule_after(SimTime(std::nan("")), [] {}),
                 std::logic_error);
  });
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 2.0);
}

TEST(SimulatorTest, RunUntilNanHorizonThrows) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(SimTime(1.0), [&] { fired = true; });
  EXPECT_THROW(sim.run_until(SimTime(std::nan(""))), std::logic_error);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 0.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(SimTime(1.0), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownOrFiredIsNoop) {
  Simulator sim;
  const EventId id = sim.schedule_at(SimTime(1.0), [] {});
  sim.run();
  sim.cancel(id);              // already fired
  sim.cancel(EventId{9999});   // never existed
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, RunWithLimitStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(SimTime(static_cast<double>(i)), [&] { ++count; });
  }
  EXPECT_EQ(sim.run(2), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.pending(), 3u);
}

TEST(SimulatorTest, RunUntilHonorsHorizon) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(SimTime(t), [&fired, &sim] {
      fired.push_back(sim.now().seconds());
    });
  }
  sim.run_until(SimTime(2.5));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 2.5);  // clock advances to horizon
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, RunUntilExecutesEventsSpawnedWithinHorizon) {
  Simulator sim;
  int chain = 0;
  sim.schedule_at(SimTime(1.0), [&] {
    ++chain;
    sim.schedule_after(SimTime(0.5), [&] { ++chain; });
  });
  sim.run_until(SimTime(2.0));
  EXPECT_EQ(chain, 2);
}

TEST(SimulatorTest, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(SimTime(1.0), [&] { fired = true; });
  sim.schedule_at(SimTime(2.0), [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.run_until(SimTime(3.0)), 1u);
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, PendingAndExecutedCounters) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(SimTime(static_cast<double>(i)), [] {});
  }
  const EventId id = sim.schedule_at(SimTime(10.0), [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 4u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, EventsCanScheduleRecursively) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(SimTime(1.0), recurse);
  };
  sim.schedule_at(SimTime(0.0), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 99.0);
}

// --- Generation-stamped slot semantics ------------------------------------

TEST(SimulatorTest, StaleIdCannotCancelRecycledSlot) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventId stale = sim.schedule_at(SimTime(1.0), [&] { first = true; });
  sim.cancel(stale);  // slot goes back to the free list, generation bumped
  const EventId fresh = sim.schedule_at(SimTime(1.0), [&] { second = true; });
  sim.cancel(stale);  // must NOT hit the recycled slot's new incarnation
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_NE(stale.value, fresh.value);
}

TEST(SimulatorTest, SlotChurnAcrossChunkBoundaries) {
  // Waves larger than one 64-slot chunk force slab growth, then recycling;
  // counts must stay exact through heavy slot reuse.
  Simulator sim;
  std::size_t fired = 0;
  for (int wave = 0; wave < 8; ++wave) {
    for (int i = 0; i < 150; ++i) {
      sim.schedule_after(SimTime(1.0 + i), [&] { ++fired; });
    }
    sim.run();
    EXPECT_TRUE(sim.empty());
  }
  EXPECT_EQ(fired, 8u * 150u);
  EXPECT_EQ(sim.events_executed(), 8u * 150u);
}

TEST(SimulatorTest, HeapOrderingStressMatchesReferenceSort) {
  // Adversarial mix of timestamps (with many duplicates) against a stable
  // reference sort — the 4-ary heap plus seq tie-break must agree exactly.
  Simulator sim;
  std::vector<int> fired_order;
  std::vector<std::pair<double, int>> reference;
  std::uint64_t state = 12345;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double at = static_cast<double>((state >> 33) % 37);
    reference.emplace_back(at, i);
    sim.schedule_at(SimTime(at), [&fired_order, i] { fired_order.push_back(i); });
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  ASSERT_EQ(fired_order.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(fired_order[i], reference[i].second) << "position " << i;
  }
}

TEST(SimulatorTest, LargeCapturesFallBackToHeapAndStayIntact) {
  // A capture bigger than EventCallback::kInlineCapacity takes the boxed
  // path; the payload must arrive unscathed and cancel must destroy it.
  Simulator sim;
  std::array<double, 32> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  static_assert(sizeof(big) > mvcom::sim::EventCallback::kInlineCapacity);
  double sum = 0.0;
  sim.schedule_at(SimTime(1.0), [big, &sum] {
    for (const double v : big) sum += v;
  });
  const EventId doomed =
      sim.schedule_at(SimTime(2.0), [big, &sum] { sum += 1e9 + big[0]; });
  sim.cancel(doomed);  // boxed callback destroyed without running
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 31.0 * 32.0 / 2.0);
}

TEST(SimulatorTest, RunUntilDrainsTombstonesAndAdvancesClock) {
  Simulator sim;
  const EventId a = sim.schedule_at(SimTime(1.0), [] {});
  const EventId b = sim.schedule_at(SimTime(2.0), [] {});
  sim.cancel(a);
  sim.cancel(b);
  EXPECT_EQ(sim.run_until(SimTime(5.0)), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 5.0);
}

// --- Event-order digest ----------------------------------------------------

TEST(SimulatorTest, OrderDigestIsReproducible) {
  const auto run_workload = [] {
    Simulator sim;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime(static_cast<double>((i * 7) % 13)), [] {});
    }
    sim.run();
    return sim.order_digest();
  };
  EXPECT_EQ(run_workload(), run_workload());
}

TEST(SimulatorTest, OrderDigestDistinguishesScheduleOrder) {
  // Same event *set*, different insertion order => different FIFO seq
  // assignment => different digest. This is exactly the sensitivity the
  // lane determinism matrix relies on.
  Simulator forward;
  Simulator backward;
  for (int i = 0; i < 8; ++i) {
    forward.schedule_at(SimTime(1.0), [] {});
    backward.schedule_at(SimTime(static_cast<double>(8 - i)), [] {});
  }
  forward.run();
  backward.run();
  EXPECT_NE(forward.order_digest(), backward.order_digest());
  EXPECT_EQ(forward.events_executed(), backward.events_executed());
}

TEST(SimulatorTest, FreshSimulatorsShareTheDigestBasis) {
  Simulator a;
  Simulator b;
  EXPECT_EQ(a.order_digest(), b.order_digest());
  a.schedule_at(SimTime(1.0), [] {});
  a.run();
  EXPECT_NE(a.order_digest(), b.order_digest());
}

}  // namespace
