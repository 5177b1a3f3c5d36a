// Tests for Alg. 1's listening loop as EpochSupervisor runs it: bootstrap
// condition, arrival handling, the N_max cutoff, failures and rejoins.
// Every report enters as a verified submission; test_supervisor.cpp covers
// what the supervisor adds around the loop (strikes, bans, the detector,
// the ladder).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "mvcom/supervisor.hpp"
#include "sharding/verification.hpp"

namespace {

using mvcom::core::Admission;
using mvcom::core::DecisionTier;
using mvcom::core::EpochInstance;
using mvcom::core::EpochSupervisor;
using mvcom::core::Selection;
using mvcom::core::SupervisorConfig;
using mvcom::txn::ShardReport;

/// Committee `id` submits a verified shard of `txs` TXs that finished its
/// two phases after `latency` seconds.
Admission submit(EpochSupervisor& sup, std::uint32_t id, std::uint64_t txs,
                 double latency) {
  return sup.on_submission(
      mvcom::sharding::build_submission(
          id, {{"shard-" + std::to_string(id), txs}}),
      latency, 0.0);
}

SupervisorConfig config(std::size_t expected = 10,
                        std::uint64_t capacity = 4000) {
  SupervisorConfig c;
  c.scheduler.alpha = 1.5;
  c.scheduler.capacity = capacity;
  c.scheduler.expected_committees = expected;
  c.scheduler.se.threads = 2;
  return c;
}

/// The instance aligned_se_selection() is index-aligned with: the live
/// reports at the supervisor's current N_min.
EpochInstance live_instance(const EpochSupervisor& sup,
                            const SupervisorConfig& c) {
  return EpochInstance::from_reports(sup.reports(), c.scheduler.alpha,
                                     c.scheduler.capacity, sup.n_min());
}

std::uint64_t live_txs(const EpochSupervisor& sup) {
  std::uint64_t total = 0;
  for (const ShardReport& r : sup.reports()) total += r.tx_count;
  return total;
}

TEST(OnlineSchedulerTest, BootstrapWaitsForNminAndBindingCapacity) {
  // Alg. 1 line 1: exploration starts only when the number of arrived
  // committees exceeds N_min AND Σ s > Ĉ.
  EpochSupervisor sup(config(10, 4000), 1);
  EXPECT_EQ(sup.n_min(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(submit(sup, i, 500, 700.0 + i * 10), Admission::kAdmitted);
    EXPECT_FALSE(sup.bootstrapped());  // <= N_min arrived
  }
  // 6th arrival: count > N_min but Σ s = 3000 <= 4000: still waiting.
  EXPECT_EQ(submit(sup, 5, 500, 760.0), Admission::kAdmitted);
  EXPECT_FALSE(sup.bootstrapped());
  // 7th arrival pushes Σ s to 4200 > Ĉ: bootstrap.
  EXPECT_EQ(submit(sup, 6, 1200, 770.0), Admission::kAdmitted);
  EXPECT_TRUE(sup.bootstrapped());
}

TEST(OnlineSchedulerTest, DecisionIsFeasibleAndUsesArrivedCommittees) {
  const SupervisorConfig c = config(10, 4000);
  EpochSupervisor sup(c, 4);
  mvcom::common::Rng rng(5);
  for (std::uint32_t i = 0; i < 8; ++i) {
    submit(sup, i, 500 + rng.below(200), 650.0 + i * 20.0);
  }
  sup.explore(1000);
  const Selection best = sup.aligned_se_selection();
  ASSERT_EQ(best.size(), sup.reports().size());  // aligned
  const EpochInstance instance = live_instance(sup, c);
  EXPECT_TRUE(instance.feasible(best));
  EXPECT_GE(static_cast<std::size_t>(std::count(best.begin(), best.end(), 1)),
            sup.n_min());
  EXPECT_LE(instance.permitted_txs(best), 4000u);
}

TEST(OnlineSchedulerTest, FailureRemovesCommitteeFromDecisions) {
  const SupervisorConfig c = config(10, 4000);
  EpochSupervisor sup(c, 6);
  for (std::uint32_t i = 0; i < 8; ++i) {
    submit(sup, i, 700, 650.0 + i * 15.0);
  }
  sup.explore(500);
  sup.on_failure(2);
  sup.explore(500);
  for (const ShardReport& r : sup.reports()) {
    EXPECT_NE(r.committee_id, 2u);
  }
  const Selection best = sup.aligned_se_selection();
  ASSERT_EQ(best.size(), sup.reports().size());  // aligned
  EXPECT_TRUE(live_instance(sup, c).feasible(best));
}

TEST(OnlineSchedulerTest, FailureOfUnknownIdIsNoop) {
  EpochSupervisor sup(config(), 7);
  submit(sup, 0, 500, 700.0);
  sup.on_failure(42);
  EXPECT_EQ(sup.reports().size(), 1u);
  EXPECT_TRUE(sup.failures().empty());  // nothing left the live set
}

TEST(OnlineSchedulerTest, RecoveryRejoinsEvenAfterNmax) {
  EpochSupervisor sup(config(10, 4000), 8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    submit(sup, i, 700, 650.0 + i * 15.0);
  }
  EXPECT_FALSE(sup.listening());
  sup.on_failure(4);
  EXPECT_EQ(sup.reports().size(), 7u);
  EXPECT_TRUE(sup.health(4)->evicted);
  // Fig. 9(a): the failed committee recovers online shortly.
  EXPECT_TRUE(sup.on_recovery(4));
  EXPECT_EQ(sup.reports().size(), 8u);
  EXPECT_FALSE(sup.health(4)->evicted);
  EXPECT_FALSE(sup.listening());  // the door stays closed for others
  EXPECT_EQ(submit(sup, 9, 700, 720.0), Admission::kRefused);
}

TEST(OnlineSchedulerTest, AllCommitteesFailingResetsBootstrap) {
  EpochSupervisor sup(config(4, 1000), 9);
  submit(sup, 0, 600, 700.0);
  submit(sup, 1, 600, 710.0);
  submit(sup, 2, 600, 720.0);
  ASSERT_TRUE(sup.bootstrapped());
  sup.on_failure(0);
  sup.on_failure(1);
  sup.on_failure(2);
  EXPECT_FALSE(sup.bootstrapped());
  EXPECT_TRUE(sup.aligned_se_selection().empty());
}

TEST(OnlineSchedulerTest, RejectsDegenerateConfigs) {
  SupervisorConfig no_capacity = config();
  no_capacity.scheduler.capacity = 0;
  EXPECT_THROW(EpochSupervisor(no_capacity, 1), std::invalid_argument);
  SupervisorConfig no_expected = config();
  no_expected.scheduler.expected_committees = 0;
  EXPECT_THROW(EpochSupervisor(no_expected, 1), std::invalid_argument);
  SupervisorConfig bad_fraction = config();
  bad_fraction.scheduler.n_max_fraction = 1.5;
  EXPECT_THROW(EpochSupervisor(bad_fraction, 1), std::invalid_argument);
  bad_fraction.scheduler.n_max_fraction =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EpochSupervisor(bad_fraction, 1), std::invalid_argument);
  SupervisorConfig nan_min = config();
  nan_min.scheduler.n_min_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EpochSupervisor(nan_min, 1), std::invalid_argument);
}

// Regression: N_min = n_min_fraction·expected was truncated toward zero
// (0.5 × 5 → 2), silently weakening the Eq.-(3) lower bound. It now rounds
// UP, and pairs where N_min ≥ ⌈n_max_fraction·expected⌉ — which would make
// bootstrap unreachable because listening stops at N_max — are rejected.
TEST(OnlineSchedulerTest, NminRoundsUpPerEqThree) {
  const EpochSupervisor sup(config(5, 4000), 1);
  EXPECT_EQ(sup.n_min(), 3u);  // ⌈0.5·5⌉, not ⌊0.5·5⌋ = 2
}

TEST(OnlineSchedulerTest, UnreachableBootstrapConfigsAreRejected) {
  // n_min_fraction = 1.0: N_min = expected, but listening stops at
  // N_max = ⌈0.8·expected⌉ < expected — bootstrap could never trigger.
  SupervisorConfig full_min = config();
  full_min.scheduler.n_min_fraction = 1.0;
  EXPECT_THROW(EpochSupervisor(full_min, 1), std::invalid_argument);
  // Equal fractions collapse to N_min == N_max: "strictly more than N_min"
  // arrivals is likewise impossible.
  SupervisorConfig equal = config();
  equal.scheduler.n_min_fraction = 0.8;
  equal.scheduler.n_max_fraction = 0.8;
  EXPECT_THROW(EpochSupervisor(equal, 1), std::invalid_argument);
}

TEST(OnlineSchedulerTest, OverflowingReportIsRefused) {
  EpochSupervisor sup(config(), 3);
  ASSERT_EQ(submit(sup, 0, 500, 700.0), Admission::kAdmitted);
  EXPECT_EQ(submit(sup, 1, std::numeric_limits<std::uint64_t>::max(), 710.0),
            Admission::kRefused);
  EXPECT_EQ(sup.reports().size(), 1u);
  // The loop keeps accepting sane reports afterwards.
  EXPECT_EQ(submit(sup, 2, 600, 720.0), Admission::kAdmitted);
}

// Regression: the admission overflow check used to rescan all reports per
// arrival (O(|I|²) across an epoch). It now compares against a cached
// running total, which must be *decremented* on failure — a stale total
// would wrongly refuse reports that fit after a big committee failed.
TEST(OnlineSchedulerTest, CachedTotalTracksArrivalsAndFailures) {
  constexpr std::uint64_t kHuge =
      std::numeric_limits<std::uint64_t>::max() - 100;
  EpochSupervisor sup(config(), 3);
  ASSERT_EQ(submit(sup, 0, kHuge, 700.0), Admission::kAdmitted);
  // Near-max total: the next big report must be refused...
  EXPECT_EQ(submit(sup, 1, 200, 710.0), Admission::kRefused);
  // ...but once the huge committee fails, the freed budget is usable again.
  sup.on_failure(0);
  EXPECT_EQ(live_txs(sup), 0u);
  EXPECT_EQ(submit(sup, 1, kHuge, 710.0), Admission::kAdmitted);
  EXPECT_EQ(live_txs(sup), kHuge);
}

// Regression for the aligned_se_selection() lock-step guard: it used to
// compare only the *sizes* of the SE instance and the live report set, so an
// interleaving of failures and recoveries that restores the count but
// permutes or replaces the membership would go undetected. The guard now
// compares committee ids position by position.
TEST(OnlineSchedulerTest, DecideSurvivesFailRecoverReordering) {
  const SupervisorConfig c = config(10, 4000);
  EpochSupervisor sup(c, 11);
  mvcom::common::Rng rng(11);
  for (std::uint32_t i = 0; i < 8; ++i) {
    submit(sup, i, 500 + rng.below(300), 650.0 + i * 10.0);
  }
  sup.explore(500);
  // Fail two committees, then recover them in swapped order: the live set
  // has the original size but a different id order than at bootstrap.
  sup.on_failure(1);
  sup.on_failure(6);
  ASSERT_TRUE(sup.on_recovery(6));
  ASSERT_TRUE(sup.on_recovery(1));
  sup.explore(500);
  const Selection best = sup.aligned_se_selection();
  ASSERT_FALSE(best.empty());
  ASSERT_EQ(best.size(), sup.reports().size());  // aligned
  const EpochInstance instance = live_instance(sup, c);
  EXPECT_TRUE(instance.feasible(best));
  EXPECT_LE(instance.permitted_txs(best), 4000u);
  EXPECT_EQ(sup.decide().tier, DecisionTier::kSeBest);
}

// The recovery door is only for committees whose report was evicted —
// otherwise it would double as a late-join (or duplicate-report) loophole
// after listening stopped.
TEST(OnlineSchedulerTest, RecoveryOfNeverFailedIdIsRefused) {
  EpochSupervisor sup(config(10, 4000), 12);
  for (std::uint32_t i = 0; i < 6; ++i) {
    submit(sup, i, 700, 650.0 + i);
  }
  // Id 3 is alive: "recovering" it must not inject a second report.
  EXPECT_FALSE(sup.on_recovery(3));
  // Id 42 was never seen at all.
  EXPECT_FALSE(sup.on_recovery(42));
  EXPECT_EQ(sup.reports().size(), 6u);
}

TEST(OnlineSchedulerTest, RecoveryDoorClosesAfterUse) {
  EpochSupervisor sup(config(10, 4000), 13);
  for (std::uint32_t i = 0; i < 8; ++i) {
    submit(sup, i, 700, 650.0 + i);
  }
  sup.on_failure(4);
  EXPECT_TRUE(sup.on_recovery(4));
  // A second recovery of the same id is refused, and its report a duplicate.
  EXPECT_FALSE(sup.on_recovery(4));
  EXPECT_EQ(submit(sup, 4, 700, 713.0), Admission::kDuplicate);
  EXPECT_EQ(sup.reports().size(), 8u);
}

TEST(OnlineSchedulerTest, RecoveryWithDifferentTxCountUsesTheNewReport) {
  // A recovering committee may legitimately re-report a different s_i (it
  // kept packaging while partitioned). A verified re-submission after its
  // failure rejoins with the fresh count, past the N_max cutoff.
  EpochSupervisor sup(config(10, 4000), 14);
  for (std::uint32_t i = 0; i < 8; ++i) {
    submit(sup, i, 700, 650.0 + i);
  }
  ASSERT_FALSE(sup.listening());
  sup.on_failure(2);
  EXPECT_EQ(live_txs(sup), 7u * 700u);
  ASSERT_EQ(submit(sup, 2, 900, 705.0), Admission::kReadmitted);
  EXPECT_EQ(live_txs(sup), 7u * 700u + 900u);
  bool found = false;
  for (const auto& r : sup.reports()) {
    if (r.committee_id == 2) {
      found = true;
      EXPECT_EQ(r.tx_count, 900u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
