// Tests for the discrete-event simulation kernel.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// Six events at 0..5 s, each spawning one more 0.5 s later; the event at
/// `stop_at` s calls stop(). Every firing instant lands in `fired`.
void load_spawning_events(Simulator& sim, std::vector<double>& fired,
                          int stop_at) {
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(SimTime(static_cast<double>(i)),
                    [&sim, &fired, i, stop_at] {
                      fired.push_back(sim.now().seconds());
                      sim.schedule_after(SimTime(0.5), [&sim, &fired] {
                        fired.push_back(sim.now().seconds());
                      });
                      if (i == stop_at) sim.stop();
                    });
  }
}

TEST(SimulatorTest, StopReturnsAfterTheCallingEventAndASecondRunResumes) {
  Simulator whole;
  std::vector<double> whole_fired;
  load_spawning_events(whole, whole_fired, -1);
  EXPECT_EQ(whole.run(), 12u);

  Simulator split;
  std::vector<double> fired;
  load_spawning_events(split, fired, 2);
  // 0, 0.5, 1, 1.5 and the stopping event at 2 fire; its spawn at 2.5 and
  // the roots at 3, 4 and 5 stay queued.
  EXPECT_EQ(split.run(), 5u);
  EXPECT_EQ(fired, (std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0}));
  EXPECT_DOUBLE_EQ(split.now().seconds(), 2.0);
  EXPECT_EQ(split.pending(), 4u);
  EXPECT_EQ(split.events_executed(), 5u);

  EXPECT_EQ(split.run(), 7u);
  EXPECT_EQ(fired, whole_fired);
  EXPECT_EQ(split.events_executed(), whole.events_executed());
  EXPECT_EQ(split.order_digest(), whole.order_digest());
}

TEST(SimulatorTest, StopOutsideARunDoesNotCutTheNextShort) {
  Simulator sim;
  std::vector<double> fired;
  load_spawning_events(sim, fired, -1);
  sim.stop();
  EXPECT_EQ(sim.run(), 12u);
  // Nor does a stop that ended the previous run carry into the next one.
  int count = 0;
  sim.schedule_after(SimTime(1.0), [&] {
    ++count;
    sim.stop();
  });
  for (int i = 2; i < 5; ++i) {
    sim.schedule_after(SimTime(static_cast<double>(i)), [&] { ++count; });
  }
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, RunUntilHonorsStopAndKeepsItsClock) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(SimTime(t), [&fired, &sim, t] {
      fired.push_back(t);
      if (t == 2.0) sim.stop();
    });
  }
  EXPECT_EQ(sim.run_until(SimTime(3.5)), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  // A stopped run leaves the clock at the stopping event, so the event at
  // 3 s, inside the horizon, is still in the future.
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 2.0);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run_until(SimTime(3.5)), 1u);
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 3.5);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
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
  // Adversarial mix of timestamps (many duplicates, plus bursts of equal
  // instants) with cancels interleaved, and a run_until that fires a prefix
  // before the second wave is scheduled. The 4-ary heap plus seq tie-break
  // must agree exactly with a stable sort of the events still live, so
  // every tombstone surfaces and drops without disturbing the order.
  Simulator sim;
  std::vector<int> fired_order;
  struct Scheduled {
    double at;
    int tag;
    EventId id;
    bool cancelled = false;
  };
  std::vector<Scheduled> events;
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const auto schedule = [&](double at) {
    const int tag = static_cast<int>(events.size());
    const EventId id = sim.schedule_at(
        SimTime(at), [&fired_order, tag] { fired_order.push_back(tag); });
    events.push_back({at, tag, id});
  };
  const auto cancel_some = [&] {
    // About one schedule in four cancels an earlier event; some of those
    // already fired or were already cancelled, which must be no-ops.
    if (next() % 4 != 0) return;
    Scheduled& victim = events[next() % events.size()];
    sim.cancel(victim.id);
    const bool fired =
        std::find(fired_order.begin(), fired_order.end(), victim.tag) !=
        fired_order.end();
    if (!fired) victim.cancelled = true;
  };
  const auto wave = [&](double floor, int count) {
    for (int i = 0; i < count;) {
      const double at = floor + static_cast<double>(next() % 37);
      // Every eighth draw is a burst of 2-9 events at one instant.
      const int burst = next() % 8 == 0 ? 2 + static_cast<int>(next() % 8) : 1;
      for (int b = 0; b < burst && i < count; ++b, ++i) {
        schedule(at);
        cancel_some();
      }
    }
  };

  wave(0.0, 300);
  const std::size_t early = sim.run_until(SimTime(18.0));
  EXPECT_EQ(early, fired_order.size());
  for (const Scheduled& e : events) {
    if (!e.cancelled && e.at <= 18.0) {
      EXPECT_NE(std::find(fired_order.begin(), fired_order.end(), e.tag),
                fired_order.end())
          << "event " << e.tag << " at " << e.at << " missed the horizon";
    }
  }
  wave(18.0, 300);
  std::size_t live = 0;
  for (const Scheduled& e : events) live += e.cancelled ? 0 : 1;
  EXPECT_EQ(sim.pending() + fired_order.size(), live);
  sim.run();

  std::vector<Scheduled> reference;
  for (const Scheduled& e : events) {
    if (!e.cancelled) reference.push_back(e);
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  ASSERT_EQ(fired_order.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(fired_order[i], reference[i].tag) << "position " << i;
  }
  EXPECT_TRUE(sim.empty());
}

// --- Instant edge cases of the queue key ------------------------------------

TEST(SimulatorTest, NegativeZeroFiresAsPositiveZeroInScheduleOrder) {
  // −0.0 and +0.0 are one instant: interleaved, they fire in schedule
  // order, the clock reads +0.0 at each of them, and the order digest is
  // the one of the same schedule written with +0.0 alone.
  Simulator sim;
  Simulator plus;
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    const double at = i % 3 == 1 ? -0.0 : 0.0;
    sim.schedule_at(SimTime(at), [&sim, &order, i] {
      EXPECT_FALSE(std::signbit(sim.now().seconds())) << "event " << i;
      EXPECT_EQ(sim.now().seconds(), 0.0);
      order.push_back(i);
    });
    plus.schedule_at(SimTime(0.0), [] {});
  }
  sim.schedule_at(SimTime(1.0), [&order] { order.push_back(12); });
  plus.schedule_at(SimTime(1.0), [] {});
  sim.run();
  plus.run();
  std::vector<int> expected(13);
  for (int i = 0; i < 13; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.order_digest(), plus.order_digest());
}

TEST(SimulatorTest, ExtremeInstantsFireInValueOrder) {
  // Subnormals, the smallest normal, instants past 2^53 s (where adjacent
  // doubles are 2 s or more apart), DBL_MAX and +inf, scheduled out of
  // order: they fire in value order, each at its exact instant.
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> instants = {
      0.0,
      denorm,
      2 * denorm,
      std::numeric_limits<double>::min() / 2,  // the largest subnormal range
      std::numeric_limits<double>::min(),
      1.0,
      0x1.0p53,
      0x1.0p53 + 2.0,
      0x1.0p60,
      1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity()};
  ASSERT_TRUE(std::is_sorted(instants.begin(), instants.end()));
  std::vector<std::size_t> schedule_order(instants.size());
  for (std::size_t i = 0; i < schedule_order.size(); ++i) {
    // A fixed shuffle: 5 is coprime with 12.
    schedule_order[i] = (i * 5 + 3) % instants.size();
  }
  Simulator sim;
  std::vector<double> fired;
  for (const std::size_t k : schedule_order) {
    sim.schedule_at(SimTime(instants[k]), [&sim, &fired] {
      fired.push_back(sim.now().seconds());
    });
  }
  sim.run();
  ASSERT_EQ(fired.size(), instants.size());
  for (std::size_t i = 0; i < instants.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fired[i]),
              std::bit_cast<std::uint64_t>(instants[i]))
        << "position " << i;
  }
  EXPECT_TRUE(sim.now().is_infinite());
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
