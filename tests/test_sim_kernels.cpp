// Cohort-executor suite for the DES engine (DESIGN.md §16).
//
// The contract under test: the cohort executor fires exactly the events a
// one-event-at-a-time interpretation of typed events fires, in the same
// (timestamp, sequence) order — asserted through the FNV-1a order_digest,
// events_executed, and the execution log. The oracle is test-local: it
// schedules every typed event as a slab callback (schedule_at) that calls
// its kernel with a cohort of one. Unit tests pin each cohort edge, and a
// fuzz tier of randomized cohort shapes — same-timestamp storms, cancel-
// inside-cohort, and schedule-from-kernel re-entry — compares the executor
// against the oracle, printing the failing seed so the script replays
// deterministically. Full Elastico epochs are pinned digest-for-digest in
// test_elastico_lanes.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::sim::KernelFn;
using mvcom::sim::KernelId;
using mvcom::sim::Simulator;
using mvcom::sim::TypedPayload;

// ---------------------------------------------------------------------------
// Engine-level tests
// ---------------------------------------------------------------------------

/// Records every executed typed event as (kernel, payload.a, at) in execution
/// order, plus the cohort sizes each kernel call received — the oracle sees
/// all-ones cohorts, the cohort executor the grouped shape, while the
/// flattened execution log stays identical.
struct RecordingHarness {
  explicit RecordingHarness(bool use_oracle = false) : oracle(use_oracle) {
    k0 = add_kernel(&RecordingHarness::thunk0, this);
    k1 = add_kernel(&RecordingHarness::thunk1, this);
  }

  /// Registers a kernel with the simulator and keeps it for the oracle.
  KernelId add_kernel(KernelFn fn, void* ctx) {
    kernels.emplace_back(fn, ctx);
    return sim.register_kernel(fn, ctx);
  }

  /// The cohort executor's Simulator::schedule_typed, or the oracle: one
  /// slab callback per event that calls its kernel with a cohort of one.
  void schedule_typed(SimTime at, KernelId kernel, TypedPayload payload) {
    if (!oracle) {
      sim.schedule_typed(at, kernel, payload);
      return;
    }
    const auto [fn, ctx] = kernels[kernel.value];
    sim.schedule_at(at, [fn, ctx, payload] { fn(ctx, &payload, 1); });
  }

  static void thunk0(void* ctx, const TypedPayload* cohort, std::size_t n) {
    static_cast<RecordingHarness*>(ctx)->record(0, cohort, n);
  }
  static void thunk1(void* ctx, const TypedPayload* cohort, std::size_t n) {
    static_cast<RecordingHarness*>(ctx)->record(1, cohort, n);
  }

  void record(int kernel, const TypedPayload* cohort, std::size_t n) {
    cohort_sizes.push_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      log.push_back({kernel, cohort[i].a,
                     std::bit_cast<std::uint64_t>(sim.now().seconds())});
    }
  }

  struct Executed {
    int kernel;
    std::uint64_t payload;
    std::uint64_t at_bits;
    friend bool operator==(const Executed&, const Executed&) = default;
  };

  bool oracle;
  Simulator sim;
  std::vector<std::pair<KernelFn, void*>> kernels;
  KernelId k0{};
  KernelId k1{};
  std::vector<Executed> log;
  std::vector<std::size_t> cohort_sizes;
};

TEST(SimKernels, BatchedModeGroupsEqualTimestampSameKernelRuns) {
  RecordingHarness h;
  // Three cohorts: k0 x3 @1, k1 x2 @1 (kernel switch splits), k0 x2 @2.
  for (std::uint64_t i = 0; i < 3; ++i) {
    h.sim.schedule_typed(SimTime(1.0), h.k0, {i, 0});
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    h.sim.schedule_typed(SimTime(1.0), h.k1, {10 + i, 0});
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    h.sim.schedule_typed(SimTime(2.0), h.k0, {20 + i, 0});
  }
  EXPECT_EQ(h.sim.run(), 7u);
  EXPECT_EQ(h.cohort_sizes, (std::vector<std::size_t>{3, 2, 2}));
  // FIFO within equal timestamps, payloads in schedule order.
  const std::vector<std::uint64_t> want{0, 1, 2, 10, 11, 20, 21};
  ASSERT_EQ(h.log.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(h.log[i].payload, want[i]) << "position " << i;
  }
}

TEST(SimKernels, LiveSlabEventSplitsACohort) {
  // A callback event scheduled between typed events at the same timestamp
  // must execute in its sequence position — the cohort collector may not
  // hop over it.
  std::vector<std::uint64_t> slab_hits;
  RecordingHarness h;
  h.sim.schedule_typed(SimTime(1.0), h.k0, {0, 0});
  h.sim.schedule_typed(SimTime(1.0), h.k0, {1, 0});
  h.sim.schedule_at(SimTime(1.0), [&] { slab_hits.push_back(h.log.size()); });
  h.sim.schedule_typed(SimTime(1.0), h.k0, {2, 0});
  EXPECT_EQ(h.sim.run(), 4u);
  EXPECT_EQ(h.cohort_sizes, (std::vector<std::size_t>{2, 1}));
  // The slab callback ran after the first cohort (2 events) and before the
  // third typed event.
  ASSERT_EQ(slab_hits.size(), 1u);
  EXPECT_EQ(slab_hits[0], 2u);
}

TEST(SimKernels, CancelledSlabEventInsideCohortIsSkippedInBothModes) {
  // The cohort executor and the oracle both skip the tombstone.
  for (const bool oracle : {false, true}) {
    SCOPED_TRACE(oracle ? "oracle" : "cohort executor");
    RecordingHarness h(oracle);
    h.schedule_typed(SimTime(1.0), h.k0, {0, 0});
    const auto id = h.sim.schedule_at(SimTime(1.0), [] { FAIL(); });
    h.schedule_typed(SimTime(1.0), h.k0, {1, 0});
    h.sim.cancel(id);
    EXPECT_EQ(h.sim.run(), 2u);
    ASSERT_EQ(h.log.size(), 2u);
    EXPECT_EQ(h.log[0].payload, 0u);
    EXPECT_EQ(h.log[1].payload, 1u);
    if (!oracle) {
      // The tombstone between the members must not split the cohort.
      EXPECT_EQ(h.cohort_sizes, (std::vector<std::size_t>{2}));
    }
  }
}

TEST(SimKernels, RunLimitMayCutACohortWithoutLosingEvents) {
  RecordingHarness h;
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.sim.schedule_typed(SimTime(1.0), h.k0, {i, 0});
  }
  EXPECT_EQ(h.sim.run(3), 3u);
  EXPECT_EQ(h.cohort_sizes, (std::vector<std::size_t>{3}));
  EXPECT_EQ(h.sim.pending(), 2u);
  EXPECT_EQ(h.sim.run(), 2u);
  EXPECT_EQ(h.cohort_sizes, (std::vector<std::size_t>{3, 2}));
  ASSERT_EQ(h.log.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(h.log[i].payload, i);
}

TEST(SimKernels, RunUntilStopsTypedEventsAtTheHorizon) {
  RecordingHarness h;
  h.sim.schedule_typed(SimTime(1.0), h.k0, {0, 0});
  h.sim.schedule_typed(SimTime(2.0), h.k0, {1, 0});
  h.sim.schedule_typed(SimTime(5.0), h.k0, {2, 0});
  EXPECT_EQ(h.sim.run_until(SimTime(3.0)), 2u);
  EXPECT_EQ(h.sim.now(), SimTime(3.0));
  EXPECT_EQ(h.sim.pending(), 1u);
  EXPECT_EQ(h.sim.run(), 1u);
  EXPECT_EQ(h.log.back().payload, 2u);
}

TEST(SimKernels, ScheduleFromKernelRunsAfterTheCurrentCohort) {
  // A kernel scheduling at its own timestamp gets a larger sequence number,
  // so the new event forms a later cohort — and runs where the oracle runs
  // it.
  for (const bool oracle : {false, true}) {
    SCOPED_TRACE(oracle ? "oracle" : "cohort executor");
    struct Reentry : RecordingHarness {
      KernelId k{};
      std::vector<std::uint64_t> order;
      explicit Reentry(bool use_oracle) : RecordingHarness(use_oracle) {
        k = add_kernel(
            [](void* ctx, const TypedPayload* cohort, std::size_t n) {
              auto* self = static_cast<Reentry*>(ctx);
              for (std::size_t i = 0; i < n; ++i) {
                self->order.push_back(cohort[i].a);
                if (cohort[i].a < 2) {
                  // Same-timestamp re-entry: must land after this cohort.
                  self->schedule_typed(self->sim.now(), self->k,
                                       {cohort[i].a + 100, 0});
                }
              }
            },
            this);
      }
    } h(oracle);
    h.schedule_typed(SimTime(1.0), h.k, {0, 0});
    h.schedule_typed(SimTime(1.0), h.k, {1, 0});
    EXPECT_EQ(h.sim.run(), 4u);
    EXPECT_EQ(h.order, (std::vector<std::uint64_t>{0, 1, 100, 101}));
  }
}

// ---------------------------------------------------------------------------
// Fuzz tier: randomized cohort shapes, cross-checked against the oracle.
// Same-timestamp storms, cancels landing inside cohorts, and kernels that
// re-enter the scheduler — the failing seed is printed on any mismatch so
// the script replays.
// ---------------------------------------------------------------------------

struct FuzzResult {
  std::vector<RecordingHarness::Executed> log;
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t now_bits = 0;
};

/// Replays the deterministic script derived from `seed` on the cohort
/// executor or the oracle. All randomness comes from Rng(seed) draws made in
/// execution order of the script — identical on both because the
/// per-element processing order is the determinism contract itself.
FuzzResult run_fuzz_script(std::uint64_t seed, bool oracle) {
  struct Fuzz : RecordingHarness {
    Rng script_rng;
    std::vector<mvcom::sim::EventId> cancellable;
    int reentries_left = 64;

    Fuzz(std::uint64_t seed, bool use_oracle)
        : RecordingHarness(use_oracle), script_rng(seed) {}

    /// Quantized timestamps force same-timestamp storms.
    SimTime grid_time(SimTime base) {
      return base + SimTime(0.25 * static_cast<double>(script_rng.below(8)));
    }

    void maybe_reenter(std::uint64_t payload) {
      // Decisions draw from script_rng in element-execution order, so the
      // executor and the oracle make identical choices.
      if (reentries_left <= 0) return;
      const std::uint64_t choice = script_rng.below(8);
      if (choice == 0) {
        --reentries_left;
        // Same-timestamp schedule-from-kernel re-entry.
        schedule_typed(sim.now(), payload % 2 == 0 ? k0 : k1,
                       {payload + 1000, 0});
      } else if (choice == 1) {
        --reentries_left;
        schedule_typed(grid_time(sim.now()), k1, {payload + 2000, 0});
      } else if (choice == 2 && !cancellable.empty()) {
        // Cancel-inside-cohort: disarm a pending slab timer mid-cohort.
        const std::size_t idx =
            static_cast<std::size_t>(script_rng.below(cancellable.size()));
        sim.cancel(cancellable[idx]);
      }
    }
  } h(seed, oracle);

  // Override the recording kernels with re-entering ones: reuse the harness
  // log via record(), then maybe re-enter.
  struct Hook {
    static void thunk0(void* ctx, const TypedPayload* cohort, std::size_t n) {
      auto* self = static_cast<Fuzz*>(ctx);
      self->record(0, cohort, n);
      for (std::size_t i = 0; i < n; ++i) self->maybe_reenter(cohort[i].a);
    }
    static void thunk1(void* ctx, const TypedPayload* cohort, std::size_t n) {
      auto* self = static_cast<Fuzz*>(ctx);
      self->record(1, cohort, n);
      for (std::size_t i = 0; i < n; ++i) self->maybe_reenter(cohort[i].a);
    }
    using Fuzz = decltype(h);
  };
  h.k0 = h.add_kernel(&Hook::thunk0, &h);
  h.k1 = h.add_kernel(&Hook::thunk1, &h);

  // Seed script: a mix of typed storms, slab callbacks, and pre-run cancels.
  const std::size_t ops = 64 + static_cast<std::size_t>(h.script_rng.below(64));
  for (std::size_t op = 0; op < ops; ++op) {
    const SimTime at = h.grid_time(SimTime::zero());
    switch (h.script_rng.below(4)) {
      case 0:
      case 1:
        h.schedule_typed(at, h.script_rng.bernoulli(0.5) ? h.k0 : h.k1,
                         {op, 0});
        break;
      case 2:
        h.cancellable.push_back(h.sim.schedule_at(
            at, [&h, op] { h.log.push_back({2, op, 0}); }));
        break;
      default:
        if (!h.cancellable.empty() && h.script_rng.bernoulli(0.25)) {
          const std::size_t idx = static_cast<std::size_t>(
              h.script_rng.below(h.cancellable.size()));
          h.sim.cancel(h.cancellable[idx]);
        }
        break;
    }
  }
  h.sim.run();

  FuzzResult out;
  out.log = std::move(h.log);
  out.digest = h.sim.order_digest();
  out.executed = h.sim.events_executed();
  out.now_bits = std::bit_cast<std::uint64_t>(h.sim.now().seconds());
  return out;
}

TEST(SimKernelsFuzz, RandomCohortShapesMatchReferenceInterpreter) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FuzzResult ref = run_fuzz_script(seed, /*oracle=*/true);
    const FuzzResult bat = run_fuzz_script(seed, /*oracle=*/false);
    const bool match = ref.digest == bat.digest &&
                       ref.executed == bat.executed &&
                       ref.now_bits == bat.now_bits && ref.log == bat.log;
    if (!match) {
      ADD_FAILURE() << "executor/oracle divergence at fuzz seed " << seed
                    << ": oracle digest " << std::hex << ref.digest
                    << " executed " << std::dec << ref.executed
                    << " log size " << ref.log.size() << " vs executor digest "
                    << std::hex << bat.digest << " executed " << std::dec
                    << bat.executed << " log size " << bat.log.size();
      for (std::size_t i = 0; i < std::min(ref.log.size(), bat.log.size());
           ++i) {
        if (!(ref.log[i] == bat.log[i])) {
          ADD_FAILURE() << "first divergent event at index " << i
                        << ": oracle (kernel " << ref.log[i].kernel
                        << ", payload " << ref.log[i].payload
                        << ") vs executor (kernel " << bat.log[i].kernel
                        << ", payload " << bat.log[i].payload << ")";
          break;
        }
      }
      return;  // one seed's dump is enough
    }
  }
}

}  // namespace
