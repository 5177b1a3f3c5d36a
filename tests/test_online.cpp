// Tests for OnlineCommitteeScheduler — Alg. 1's listening loops end to end:
// bootstrap condition, arrival handling, N_max cutoff, failures/recoveries.

#include "mvcom/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace {

using mvcom::core::EpochInstance;
using mvcom::core::OnlineCommitteeScheduler;
using mvcom::core::OnlineSchedulerConfig;
using mvcom::core::Selection;
using mvcom::txn::ShardReport;

ShardReport report(std::uint32_t id, std::uint64_t txs, double latency) {
  ShardReport r;
  r.committee_id = id;
  r.tx_count = txs;
  r.formation_latency = latency;
  r.consensus_latency = 0.0;
  return r;
}

OnlineSchedulerConfig config(std::size_t expected = 10,
                             std::uint64_t capacity = 4000) {
  OnlineSchedulerConfig c;
  c.alpha = 1.5;
  c.capacity = capacity;
  c.expected_committees = expected;
  c.se.threads = 2;
  return c;
}

/// The instance aligned_se_selection() is index-aligned with: the live
/// reports at the scheduler's current N_min.
EpochInstance live_instance(const OnlineCommitteeScheduler& scheduler,
                            const OnlineSchedulerConfig& c) {
  return EpochInstance::from_reports(scheduler.reports(), c.alpha, c.capacity,
                                     scheduler.n_min());
}

TEST(OnlineSchedulerTest, BootstrapWaitsForNminAndBindingCapacity) {
  // Alg. 1 line 1: exploration starts only when the number of arrived
  // committees exceeds N_min AND Σ s > Ĉ.
  OnlineCommitteeScheduler scheduler(config(10, 4000), 1);
  EXPECT_EQ(scheduler.n_min(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(scheduler.on_report(report(i, 500, 700.0 + i * 10)));
    EXPECT_FALSE(scheduler.bootstrapped());  // <= N_min arrived
  }
  // 6th arrival: count > N_min but Σ s = 3000 <= 4000: still waiting.
  EXPECT_TRUE(scheduler.on_report(report(5, 500, 760.0)));
  EXPECT_FALSE(scheduler.bootstrapped());
  // 7th arrival pushes Σ s to 4200 > Ĉ: bootstrap.
  EXPECT_TRUE(scheduler.on_report(report(6, 1200, 770.0)));
  EXPECT_TRUE(scheduler.bootstrapped());
}

TEST(OnlineSchedulerTest, DuplicateReportsAreRefused) {
  OnlineCommitteeScheduler scheduler(config(), 2);
  EXPECT_TRUE(scheduler.on_report(report(3, 500, 700.0)));
  EXPECT_FALSE(scheduler.on_report(report(3, 999, 800.0)));
  EXPECT_EQ(scheduler.arrived(), 1u);
}

TEST(OnlineSchedulerTest, StopsListeningAtNmax) {
  // N_max = 80% of 10 expected → the 8th arrival closes the door.
  OnlineCommitteeScheduler scheduler(config(), 3);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(scheduler.on_report(report(i, 600, 700.0 + i)));
  }
  EXPECT_FALSE(scheduler.listening());
  EXPECT_FALSE(scheduler.on_report(report(8, 600, 710.0)));
  EXPECT_EQ(scheduler.arrived(), 8u);
}

TEST(OnlineSchedulerTest, DecisionIsFeasibleAndUsesArrivedCommittees) {
  const OnlineSchedulerConfig c = config(10, 4000);
  OnlineCommitteeScheduler scheduler(c, 4);
  mvcom::common::Rng rng(5);
  for (std::uint32_t i = 0; i < 8; ++i) {
    scheduler.on_report(report(i, 500 + rng.below(200), 650.0 + i * 20.0));
  }
  scheduler.explore(1000);
  const Selection best = scheduler.aligned_se_selection();
  ASSERT_EQ(best.size(), scheduler.reports().size());  // aligned
  const EpochInstance instance = live_instance(scheduler, c);
  EXPECT_TRUE(instance.feasible(best));
  EXPECT_GE(static_cast<std::size_t>(std::count(best.begin(), best.end(), 1)),
            scheduler.n_min());
  EXPECT_LE(instance.permitted_txs(best), 4000u);
}

TEST(OnlineSchedulerTest, FailureRemovesCommitteeFromDecisions) {
  const OnlineSchedulerConfig c = config(10, 4000);
  OnlineCommitteeScheduler scheduler(c, 6);
  for (std::uint32_t i = 0; i < 8; ++i) {
    scheduler.on_report(report(i, 700, 650.0 + i * 15.0));
  }
  scheduler.explore(500);
  scheduler.on_failure(2);
  scheduler.explore(500);
  for (const ShardReport& r : scheduler.reports()) {
    EXPECT_NE(r.committee_id, 2u);
  }
  const Selection best = scheduler.aligned_se_selection();
  ASSERT_EQ(best.size(), scheduler.reports().size());  // aligned
  EXPECT_TRUE(live_instance(scheduler, c).feasible(best));
}

TEST(OnlineSchedulerTest, FailureOfUnknownIdIsNoop) {
  OnlineCommitteeScheduler scheduler(config(), 7);
  scheduler.on_report(report(0, 500, 700.0));
  scheduler.on_failure(42);
  EXPECT_EQ(scheduler.arrived(), 1u);
}

TEST(OnlineSchedulerTest, RecoveryRejoinsEvenAfterNmax) {
  OnlineCommitteeScheduler scheduler(config(10, 4000), 8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    scheduler.on_report(report(i, 700, 650.0 + i * 15.0));
  }
  EXPECT_FALSE(scheduler.listening());
  scheduler.on_failure(4);
  EXPECT_EQ(scheduler.arrived(), 7u);
  // Fig. 9(a): the failed committee recovers online shortly.
  EXPECT_TRUE(scheduler.on_recovery(report(4, 700, 710.0)));
  EXPECT_EQ(scheduler.arrived(), 8u);
  EXPECT_FALSE(scheduler.listening());  // the door stays closed for others
  EXPECT_FALSE(scheduler.on_report(report(9, 700, 720.0)));
}

TEST(OnlineSchedulerTest, AllCommitteesFailingResetsBootstrap) {
  OnlineCommitteeScheduler scheduler(config(4, 1000), 9);
  scheduler.on_report(report(0, 600, 700.0));
  scheduler.on_report(report(1, 600, 710.0));
  scheduler.on_report(report(2, 600, 720.0));
  ASSERT_TRUE(scheduler.bootstrapped());
  scheduler.on_failure(0);
  scheduler.on_failure(1);
  scheduler.on_failure(2);
  EXPECT_FALSE(scheduler.bootstrapped());
  EXPECT_TRUE(scheduler.aligned_se_selection().empty());
}

TEST(OnlineSchedulerTest, RejectsDegenerateConfigs) {
  OnlineSchedulerConfig no_capacity = config();
  no_capacity.capacity = 0;
  EXPECT_THROW(OnlineCommitteeScheduler(no_capacity, 1),
               std::invalid_argument);
  OnlineSchedulerConfig no_expected = config();
  no_expected.expected_committees = 0;
  EXPECT_THROW(OnlineCommitteeScheduler(no_expected, 1),
               std::invalid_argument);
  OnlineSchedulerConfig bad_fraction = config();
  bad_fraction.n_max_fraction = 1.5;
  EXPECT_THROW(OnlineCommitteeScheduler(bad_fraction, 1),
               std::invalid_argument);
  bad_fraction.n_max_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(OnlineCommitteeScheduler(bad_fraction, 1),
               std::invalid_argument);
  OnlineSchedulerConfig nan_min = config();
  nan_min.n_min_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(OnlineCommitteeScheduler(nan_min, 1), std::invalid_argument);
}

// Regression: N_min = n_min_fraction·expected was truncated toward zero
// (0.5 × 5 → 2), silently weakening the Eq.-(3) lower bound. It now rounds
// UP, and pairs where N_min ≥ ⌈n_max_fraction·expected⌉ — which would make
// bootstrap unreachable because listening stops at N_max — are rejected.
TEST(OnlineSchedulerTest, NminRoundsUpPerEqThree) {
  OnlineCommitteeScheduler scheduler(config(5, 4000), 1);
  EXPECT_EQ(scheduler.n_min(), 3u);  // ⌈0.5·5⌉, not ⌊0.5·5⌋ = 2
}

TEST(OnlineSchedulerTest, UnreachableBootstrapConfigsAreRejected) {
  // n_min_fraction = 1.0: N_min = expected, but listening stops at
  // N_max = ⌈0.8·expected⌉ < expected — bootstrap could never trigger.
  OnlineSchedulerConfig full_min = config();
  full_min.n_min_fraction = 1.0;
  EXPECT_THROW(OnlineCommitteeScheduler(full_min, 1), std::invalid_argument);
  // Equal fractions collapse to N_min == N_max: "strictly more than N_min"
  // arrivals is likewise impossible.
  OnlineSchedulerConfig equal = config();
  equal.n_min_fraction = 0.8;
  equal.n_max_fraction = 0.8;
  EXPECT_THROW(OnlineCommitteeScheduler(equal, 1), std::invalid_argument);
}

TEST(OnlineSchedulerTest, OverflowingReportIsRefused) {
  OnlineCommitteeScheduler scheduler(config(), 3);
  ASSERT_TRUE(scheduler.on_report(report(0, 500, 700.0)));
  EXPECT_FALSE(scheduler.on_report(
      report(1, std::numeric_limits<std::uint64_t>::max(), 710.0)));
  EXPECT_EQ(scheduler.arrived(), 1u);
  // The scheduler keeps accepting sane reports afterwards.
  EXPECT_TRUE(scheduler.on_report(report(2, 600, 720.0)));
}

// Regression: the admission overflow check used to rescan all reports per
// arrival (O(|I|²) across an epoch). It now compares against a cached
// running total, which must be *decremented* on failure — a stale total
// would wrongly refuse reports that fit after a big committee failed.
TEST(OnlineSchedulerTest, CachedTotalTracksArrivalsAndFailures) {
  constexpr std::uint64_t kHuge =
      std::numeric_limits<std::uint64_t>::max() - 100;
  OnlineCommitteeScheduler scheduler(config(), 3);
  ASSERT_TRUE(scheduler.on_report(report(0, kHuge, 700.0)));
  EXPECT_EQ(scheduler.total_reported_txs(), kHuge);
  // Near-max total: the next big report must be refused...
  EXPECT_FALSE(scheduler.on_report(report(1, 200, 710.0)));
  // ...but once the huge committee fails, the freed budget is usable again.
  scheduler.on_failure(0);
  EXPECT_EQ(scheduler.total_reported_txs(), 0u);
  EXPECT_TRUE(scheduler.on_report(report(1, kHuge, 710.0)));
  EXPECT_EQ(scheduler.total_reported_txs(), kHuge);
}

// Regression for the aligned_se_selection() lock-step guard: it used to
// compare only the *sizes* of the SE instance and the live report set, so an
// interleaving of failures and recoveries that restores the count but
// permutes or replaces the membership would go undetected. The guard now
// compares committee ids position by position.
TEST(OnlineSchedulerTest, DecideSurvivesFailRecoverReordering) {
  const OnlineSchedulerConfig c = config(10, 4000);
  OnlineCommitteeScheduler scheduler(c, 11);
  mvcom::common::Rng rng(11);
  for (std::uint32_t i = 0; i < 8; ++i) {
    scheduler.on_report(report(i, 500 + rng.below(300), 650.0 + i * 10.0));
  }
  scheduler.explore(500);
  // Fail two committees, then recover them in swapped order: the live set
  // has the original size but a different id order than at bootstrap.
  scheduler.on_failure(1);
  scheduler.on_failure(6);
  ASSERT_TRUE(scheduler.on_recovery(report(6, 700, 715.0)));
  ASSERT_TRUE(scheduler.on_recovery(report(1, 700, 655.0)));
  scheduler.explore(500);
  const Selection best = scheduler.aligned_se_selection();
  ASSERT_FALSE(best.empty());
  ASSERT_EQ(best.size(), scheduler.reports().size());  // aligned
  const EpochInstance instance = live_instance(scheduler, c);
  EXPECT_TRUE(instance.feasible(best));
  EXPECT_LE(instance.permitted_txs(best), 4000u);
}

// on_recovery edge cases: the recovery door is only for committees that
// actually went through on_failure — otherwise it would double as a
// late-join (or duplicate-report) loophole after listening stopped.
TEST(OnlineSchedulerTest, RecoveryOfNeverFailedIdIsRefused) {
  OnlineCommitteeScheduler scheduler(config(10, 4000), 12);
  for (std::uint32_t i = 0; i < 6; ++i) {
    scheduler.on_report(report(i, 700, 650.0 + i));
  }
  // Id 3 is alive: "recovering" it must not inject a second report.
  EXPECT_FALSE(scheduler.on_recovery(report(3, 900, 700.0)));
  // Id 42 was never seen at all.
  EXPECT_FALSE(scheduler.on_recovery(report(42, 700, 700.0)));
  EXPECT_EQ(scheduler.arrived(), 6u);
}

TEST(OnlineSchedulerTest, RecoveryDoorClosesAfterUse) {
  OnlineCommitteeScheduler scheduler(config(10, 4000), 13);
  for (std::uint32_t i = 0; i < 8; ++i) {
    scheduler.on_report(report(i, 700, 650.0 + i));
  }
  scheduler.on_failure(4);
  EXPECT_TRUE(scheduler.on_recovery(report(4, 700, 712.0)));
  // A second "recovery" of the same id is a duplicate, not a rejoin.
  EXPECT_FALSE(scheduler.on_recovery(report(4, 900, 713.0)));
  EXPECT_EQ(scheduler.arrived(), 8u);
}

TEST(OnlineSchedulerTest, RecoveryWithDifferentTxCountUsesTheNewReport) {
  // A recovering committee may legitimately re-report a different s_i (it
  // kept packaging while partitioned). The recovery door accepts the fresh
  // report once — the supervisor layer is responsible for verifying it.
  OnlineCommitteeScheduler scheduler(config(10, 4000), 14);
  for (std::uint32_t i = 0; i < 8; ++i) {
    scheduler.on_report(report(i, 700, 650.0 + i));
  }
  scheduler.on_failure(2);
  EXPECT_EQ(scheduler.total_reported_txs(), 7u * 700u);
  ASSERT_TRUE(scheduler.on_recovery(report(2, 900, 705.0)));
  EXPECT_EQ(scheduler.total_reported_txs(), 7u * 700u + 900u);
  bool found = false;
  for (const auto& r : scheduler.reports()) {
    if (r.committee_id == 2) {
      found = true;
      EXPECT_EQ(r.tx_count, 900u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
