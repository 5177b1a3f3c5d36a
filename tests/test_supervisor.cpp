// Tests for EpochSupervisor's fault tolerance around Alg. 1's loop:
// verified admission (quarantine/strike/ban/equivocation), the DES-driven
// heartbeat failure detector, the graceful-degradation decide() ladder, and
// the runtime Theorem-2 perturbation accounting. test_online.cpp covers the
// loop itself (bootstrap, N_max, rejoins).

#include "mvcom/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "sharding/verification.hpp"
#include "sim/simulator.hpp"

namespace {

using mvcom::core::Admission;
using mvcom::core::DecisionTier;
using mvcom::core::EpochSupervisor;
using mvcom::core::InfeasibleReason;
using mvcom::core::Selection;
using mvcom::core::SupervisorConfig;
using mvcom::sharding::build_submission;
using mvcom::sharding::ShardSubmission;
using mvcom::txn::ShardReport;

/// An honest, verification-passing submission carrying `txs` transactions.
ShardSubmission honest(std::uint32_t id, std::uint64_t txs) {
  return build_submission(id, {{"shard-" + std::to_string(id), txs}});
}

/// The same committee's shard with the claimed count inflated — the
/// commitment still binds the honest entries, so verification must fail.
ShardSubmission inflated(std::uint32_t id, std::uint64_t txs,
                         std::uint64_t claimed) {
  ShardSubmission s = honest(id, txs);
  s.claimed_tx_count = claimed;
  return s;
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

bool permits(const mvcom::core::SupervisedDecision& d, std::uint32_t id) {
  return std::find(d.decision.permitted_ids.begin(),
                   d.decision.permitted_ids.end(),
                   id) != d.decision.permitted_ids.end();
}

bool reports_contain(const EpochSupervisor& sup, std::uint32_t id) {
  for (const ShardReport& r : sup.reports()) {
    if (r.committee_id == id) return true;
  }
  return false;
}

TEST(SupervisorAdmissionTest, HonestSubmissionsAreAdmitted) {
  EpochSupervisor sup(config(), 1);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sup.on_submission(honest(i, 600), 700.0 + i, 50.0),
              Admission::kAdmitted);
  }
  EXPECT_EQ(sup.reports().size(), 8u);
  const auto h = sup.health(3);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->admitted);
  EXPECT_EQ(h->verified_txs, 600u);
  EXPECT_EQ(h->strikes, 0);
}

TEST(SupervisorAdmissionTest, InflatedClaimIsQuarantinedAndNeverAdmitted) {
  EpochSupervisor sup(config(), 2);
  for (std::uint32_t i = 0; i < 7; ++i) {
    sup.on_submission(honest(i, 600), 700.0, 50.0);
  }
  const std::size_t before = sup.reports().size();
  // The issue's acceptance criterion: the inflated s_i must never enter the
  // EpochInstance.
  EXPECT_EQ(sup.on_submission(inflated(7, 600, 2400), 700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_FALSE(reports_contain(sup, 7));
  EXPECT_EQ(sup.reports().size(), before);
  const auto h = sup.health(7);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->quarantined);
  EXPECT_FALSE(h->admitted);
  EXPECT_EQ(h->strikes, 1);
  EXPECT_FALSE(permits(sup.decide(), 7));
  const auto quarantined = sup.quarantined_ids();
  EXPECT_NE(std::find(quarantined.begin(), quarantined.end(), 7u),
            quarantined.end());
}

TEST(SupervisorAdmissionTest, TamperedRootIsQuarantined) {
  EpochSupervisor sup(config(), 3);
  ShardSubmission s = honest(0, 600);
  s.claimed_root[0] ^= 0xff;  // break the commitment, keep the count
  EXPECT_EQ(sup.on_submission(s, 700.0, 50.0), Admission::kQuarantined);
  EXPECT_FALSE(reports_contain(sup, 0));
}

TEST(SupervisorAdmissionTest, WrappingEntryCountsAreQuarantined) {
  // Entries of 2^63 and 2^63 + 100 TXs commit consistently to a wrapped
  // claim of 100: the shard must not enter as a 100-TX committee.
  EpochSupervisor sup(config(), 3);
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  EXPECT_EQ(sup.on_submission(
                build_submission(7, {{"a", kHalf}, {"b", kHalf + 100}}),
                700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_FALSE(reports_contain(sup, 7));
  EXPECT_EQ(sup.health(7)->strikes, 1);
}

TEST(SupervisorAdmissionTest, HonestResubmissionReadmitsQuarantined) {
  EpochSupervisor sup(config(), 4);
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1200), 700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_EQ(sup.on_submission(honest(0, 600), 700.0, 50.0),
            Admission::kReadmitted);
  EXPECT_TRUE(reports_contain(sup, 0));
  const auto h = sup.health(0);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->admitted);
  EXPECT_FALSE(h->quarantined);
  EXPECT_EQ(h->strikes, 1);  // strikes persist across re-admission
}

TEST(SupervisorAdmissionTest, StrikeBudgetExhaustionBans) {
  EpochSupervisor sup(config(), 5);  // three strikes ban
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1200), 700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1300), 700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1400), 700.0, 50.0),
            Admission::kBanned);
  // Once banned, even an honest submission is refused for the epoch.
  EXPECT_EQ(sup.on_submission(honest(0, 600), 700.0, 50.0),
            Admission::kBanned);
  EXPECT_FALSE(reports_contain(sup, 0));
  const auto banned = sup.banned_ids();
  ASSERT_EQ(banned.size(), 1u);
  EXPECT_EQ(banned[0], 0u);
  // Banned ids are not double-listed as quarantined.
  EXPECT_TRUE(sup.quarantined_ids().empty());
}

TEST(SupervisorAdmissionTest, EquivocationEvictsAndAllowsHonestReturn) {
  EpochSupervisor sup(config(), 6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    sup.on_submission(honest(i, 600), 700.0, 50.0);
  }
  // A second, *verification-passing* submission binding a different s_i:
  // both commitments are internally consistent, so one of them lies about
  // the actual shard. The supervisor must evict and strike.
  EXPECT_EQ(sup.on_submission(honest(3, 900), 700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_FALSE(reports_contain(sup, 3));
  // Re-asserting a verified report is an honest return through the recovery
  // door (listening may have stopped meanwhile).
  EXPECT_EQ(sup.on_submission(honest(3, 600), 700.0, 50.0),
            Admission::kReadmitted);
  EXPECT_TRUE(reports_contain(sup, 3));
}

TEST(SupervisorAdmissionTest, IdenticalResubmissionIsDuplicate) {
  EpochSupervisor sup(config(), 7);
  EXPECT_EQ(sup.on_submission(honest(0, 600), 700.0, 50.0),
            Admission::kAdmitted);
  EXPECT_EQ(sup.on_submission(honest(0, 600), 710.0, 60.0),
            Admission::kDuplicate);
  EXPECT_EQ(sup.reports().size(), 1u);
  EXPECT_EQ(sup.health(0)->strikes, 0);  // duplicates are not equivocation
}

TEST(SupervisorAdmissionTest, LateArrivalAfterNmaxIsRefused) {
  EpochSupervisor sup(config(10), 8);  // N_max = 8
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 600), 700.0, 50.0);
  }
  EXPECT_FALSE(sup.listening());
  EXPECT_EQ(sup.on_submission(honest(8, 600), 700.0, 50.0),
            Admission::kRefused);
  EXPECT_FALSE(sup.health(8)->admitted);
}

TEST(SupervisorFailureTest, ManualFailureRecordsTheorem2Accounting) {
  EpochSupervisor sup(config(), 9);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 700), 650.0 + i * 15.0, 40.0);
  }
  sup.explore(500);
  sup.on_failure(2);
  EXPECT_FALSE(reports_contain(sup, 2));
  ASSERT_EQ(sup.failures().size(), 1u);
  const auto& record = sup.failures()[0];
  EXPECT_EQ(record.committee_id, 2u);
  EXPECT_GT(record.utility_before, 0.0);
  EXPECT_GT(record.utility_after, 0.0);
  // Theorem 2's bound is the best utility on the trimmed space.
  EXPECT_DOUBLE_EQ(record.perturbation_bound, record.utility_after);
  EXPECT_TRUE(record.within_bound);
  const auto d = sup.decide();
  EXPECT_TRUE(d.theorem2_respected);
  EXPECT_DOUBLE_EQ(d.perturbation_bound, record.perturbation_bound);
  EXPECT_FALSE(permits(d, 2));
}

TEST(SupervisorFailureTest, RecoveryReadmitsLastVerifiedReport) {
  EpochSupervisor sup(config(), 10);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 700), 650.0, 40.0);
  }
  sup.on_failure(2);
  EXPECT_TRUE(sup.on_recovery(2));
  EXPECT_TRUE(reports_contain(sup, 2));
  EXPECT_TRUE(sup.health(2)->admitted);
  EXPECT_EQ(sup.recoveries_detected(), 1u);
}

TEST(SupervisorFailureTest, RecoveryOfUnknownOrLiveIdIsRefused) {
  EpochSupervisor sup(config(), 11);
  sup.on_submission(honest(0, 700), 650.0, 40.0);
  EXPECT_FALSE(sup.on_recovery(99));  // never seen
  EXPECT_FALSE(sup.on_recovery(0));   // alive, never failed
  EXPECT_EQ(sup.recoveries_detected(), 0u);
}

TEST(SupervisorFailureTest, QuarantinedCommitteeDoesNotRecoverByPing) {
  EpochSupervisor sup(config(), 12);
  for (std::uint32_t i = 0; i < 6; ++i) {
    sup.on_submission(honest(i, 700), 650.0, 40.0);
  }
  // Equivocate, then fail: the committee is both evicted and distrusted.
  sup.on_submission(honest(3, 900), 650.0, 40.0);
  sup.on_failure(3);
  // Recovery clears `failed` but must NOT re-admit a quarantined report.
  EXPECT_FALSE(sup.on_recovery(3));
  EXPECT_FALSE(reports_contain(sup, 3));
  EXPECT_FALSE(sup.health(3)->failed);
  EXPECT_TRUE(sup.health(3)->quarantined);
}

TEST(SupervisorFailureTest, FailureBeforeAnySubmissionRecordsNoDip) {
  EpochSupervisor sup(config(), 13);
  sup.on_failure(5);  // detector may fire before the committee submits
  EXPECT_EQ(sup.failures_detected(), 1u);
  EXPECT_TRUE(sup.failures().empty());  // nothing was contributing
}

TEST(SupervisorDecideTest, ConvergedSeSelectionIsTierOne) {
  EpochSupervisor sup(config(10, 4000), 14);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 700), 650.0 + i * 15.0, 40.0);
  }
  ASSERT_TRUE(sup.bootstrapped());  // 8×700 > 4000 binds
  sup.explore(2000);
  const auto d = sup.decide();
  ASSERT_TRUE(d.decision.feasible);
  EXPECT_EQ(d.tier, DecisionTier::kSeBest);
  EXPECT_EQ(d.reason, InfeasibleReason::kNone);
  EXPECT_LE(d.decision.permitted_txs, 4000u);
  EXPECT_GE(d.decision.permitted_ids.size(), sup.n_min());
}

TEST(SupervisorDecideTest, SlackCapacityFallsThroughToGreedyTiers) {
  EpochSupervisor sup(config(10, 1'000'000), 15);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 700), 650.0, 40.0);
  }
  EXPECT_FALSE(sup.bootstrapped());  // capacity never binds
  const auto d = sup.decide();
  ASSERT_TRUE(d.decision.feasible);
  EXPECT_NE(d.tier, DecisionTier::kSeBest);
  EXPECT_NE(d.tier, DecisionTier::kInfeasible);
  EXPECT_EQ(d.decision.permitted_ids.size(), 8u);
}

// Slack capacity, so SE never bootstraps: the greedy rung drops committee
// 0, whose gain α·s_i − (t − l_i) = 1.5·100 − (1,700 − 100) is negative,
// where permitting every live committee would score U = 1,700.
TEST(SupervisorDecideTest, SlackCapacityDropsTheNegativeGainShard) {
  EpochSupervisor sup(config(10, 1'000'000), 19);
  sup.on_submission(honest(0, 100), 100.0, 0.0);
  for (std::uint32_t i = 1; i < 8; ++i) {
    sup.on_submission(honest(i, 500), 1000.0 + 100.0 * i, 0.0);
  }
  EXPECT_FALSE(sup.bootstrapped());
  const auto d = sup.decide();
  ASSERT_TRUE(d.decision.feasible);
  EXPECT_EQ(d.tier, DecisionTier::kGreedyScratch);
  EXPECT_EQ(d.decision.permitted_ids.size(), 7u);
  EXPECT_FALSE(permits(d, 0));
  EXPECT_DOUBLE_EQ(d.decision.utility, 3150.0);
}

TEST(SupervisorDecideTest, NoSubmissionsReportsNoLiveCommittees) {
  EpochSupervisor sup(config(), 16);
  const auto d = sup.decide();
  EXPECT_FALSE(d.decision.feasible);
  EXPECT_EQ(d.tier, DecisionTier::kInfeasible);
  EXPECT_EQ(d.reason, InfeasibleReason::kNoLiveCommittees);
}

TEST(SupervisorDecideTest, TooFewLiveCommitteesReportsNminUnreachable) {
  EpochSupervisor sup(config(10, 4000), 17);  // N_min = 5
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 700), 650.0, 40.0);
  }
  for (std::uint32_t i = 0; i < 4; ++i) sup.on_failure(i);
  const auto d = sup.decide();
  EXPECT_FALSE(d.decision.feasible);
  EXPECT_EQ(d.tier, DecisionTier::kInfeasible);
  EXPECT_EQ(d.reason, InfeasibleReason::kNminUnreachable);
}

TEST(SupervisorDecideTest, OverCapacityNminReportsCapacityInsufficient) {
  // N_min = 2 but even the two shards together exceed the capacity.
  EpochSupervisor sup(config(4, 600), 18);
  sup.on_submission(honest(0, 500), 650.0, 40.0);
  sup.on_submission(honest(1, 500), 660.0, 40.0);
  const auto d = sup.decide();
  EXPECT_FALSE(d.decision.feasible);
  EXPECT_EQ(d.tier, DecisionTier::kInfeasible);
  EXPECT_EQ(d.reason, InfeasibleReason::kCapacityInsufficient);
}

TEST(SupervisorDecideTest, LadderNeverInfeasibleWhileWitnessExists) {
  // Interleave failures and recoveries; whenever the exact feasibility
  // witness exists the ladder must produce a feasible decision. SE keeps
  // only chains within Ĉ and at or above N_min, so whenever it holds a
  // selection the se-best rung takes it.
  EpochSupervisor sup(config(10, 4000), 19);
  mvcom::common::Rng rng(19);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 400 + rng.below(500)), 650.0, 40.0);
  }
  int se_decisions = 0;
  for (int step = 0; step < 40; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.below(8));
    if (rng.bernoulli(0.5)) {
      sup.on_failure(id);
    } else {
      sup.on_recovery(id);
    }
    sup.explore(50);
    const auto d = sup.decide();
    const bool witness = mvcom::core::n_min_witness(
                             sup.reports(), 4000,
                             sup.n_min())
                             .has_value();
    EXPECT_EQ(d.decision.feasible, witness) << "step " << step;
    if (!sup.aligned_se_selection().empty()) {
      ++se_decisions;
      EXPECT_EQ(d.tier, DecisionTier::kSeBest) << "step " << step;
    }
  }
  EXPECT_GT(se_decisions, 0);
}

TEST(SupervisorDecideTest, NminZeroOverCapacityDecidesTheEmptySelection) {
  // N_min = 0 and every live shard above Ĉ: the empty selection satisfies
  // Eq. (3) and (4), so the ladder must still decide feasibly — the
  // greedy-scratch rung only adds shards that fit, and here none does.
  SupervisorConfig c = config(4, 600);
  c.scheduler.n_min_fraction = 0.0;
  EpochSupervisor sup(c, 20);
  ASSERT_EQ(sup.n_min(), 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    sup.on_submission(honest(i, 700 + 100 * i), 650.0, 40.0);
  }
  sup.explore(200);
  const auto d = sup.decide();
  ASSERT_TRUE(d.decision.feasible);
  EXPECT_EQ(d.tier, DecisionTier::kGreedyScratch);
  EXPECT_EQ(d.reason, InfeasibleReason::kNone);
  EXPECT_TRUE(d.decision.permitted_ids.empty());
  EXPECT_EQ(d.decision.permitted_txs, 0u);
}

TEST(FeasibleSelectionExistsTest, ExactBoundaryAndOverflowSafety) {
  std::vector<ShardReport> reports;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ShardReport r;
    r.committee_id = i;
    r.tx_count = 100 * (i + 1u);  // 100, 200, 300, 400
    reports.push_back(r);
  }
  // The 2 smallest (100+200=300) define the exact boundary.
  using mvcom::core::n_min_witness;
  EXPECT_EQ(n_min_witness(reports, 300, 2), (Selection{1, 1, 0, 0}));
  EXPECT_FALSE(n_min_witness(reports, 299, 2));
  EXPECT_FALSE(n_min_witness(reports, 10'000, 5));
  EXPECT_EQ(n_min_witness(reports, 0, 0), (Selection{0, 0, 0, 0}));
  EXPECT_EQ(n_min_witness({}, 0, 0), Selection{});
  // Ties break by index: of the equal shards 1 and 3, shard 1 is picked.
  reports[3].tx_count = 200;
  EXPECT_EQ(n_min_witness(reports, 300, 2), (Selection{1, 1, 0, 0}));
  // Accumulation must not wrap: two near-max shards vs max capacity.
  std::vector<ShardReport> huge(2);
  huge[0].tx_count = std::numeric_limits<std::uint64_t>::max() - 1;
  huge[1].tx_count = std::numeric_limits<std::uint64_t>::max() - 1;
  EXPECT_FALSE(
      n_min_witness(huge, std::numeric_limits<std::uint64_t>::max(), 2));
}

TEST(SupervisorCarryTest, EquivocationEscalatesMonotonicallyAcrossEpochs) {
  // Satellite: quarantine → strike → ban must escalate monotonically when
  // the SAME committee re-offends in successive epochs, with the strike
  // state threaded through export_carry/adopt_carry.
  mvcom::core::SupervisorCarry carry;
  int last_strikes = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    EpochSupervisor sup(config(), 30 + static_cast<std::uint64_t>(epoch));
    sup.adopt_carry(carry);
    for (std::uint32_t i = 0; i < 6; ++i) {
      sup.on_submission(honest(i, 600), 700.0, 50.0);
    }
    // One equivocation per epoch (a verified submission binding a new s_i).
    const Admission a = sup.on_submission(honest(0, 900), 700.0, 50.0);
    // Three strikes ban: epochs 0 and 1 quarantine, epoch 2 bans.
    EXPECT_EQ(a, epoch < 2 ? Admission::kQuarantined : Admission::kBanned);
    carry = sup.export_carry();
    ASSERT_FALSE(carry.entries.empty());
    const auto& entry = carry.entries.front();
    EXPECT_EQ(entry.committee_id, 0u);
    EXPECT_GT(entry.strikes, last_strikes);  // strictly monotone
    last_strikes = entry.strikes;
    EXPECT_EQ(entry.banned, epoch == 2);
  }
}

TEST(SupervisorCarryTest, CarriedBanRefusesSubmissionAndHeartbeatReturn) {
  mvcom::core::SupervisorCarry carry;
  carry.entries.push_back({4, 3, true});
  EpochSupervisor sup(config(), 33);
  sup.adopt_carry(carry);
  // Even a perfectly honest submission is refused for the whole epoch...
  EXPECT_EQ(sup.on_submission(honest(4, 600), 700.0, 50.0),
            Admission::kBanned);
  EXPECT_FALSE(reports_contain(sup, 4));
  // ...and the recovery door (what the heartbeat monitor calls when a ping
  // returns) never re-admits a banned committee either.
  EXPECT_FALSE(sup.on_recovery(4));
  EXPECT_FALSE(reports_contain(sup, 4));
  const auto banned = sup.banned_ids();
  ASSERT_EQ(banned.size(), 1u);
  EXPECT_EQ(banned[0], 4u);
  // The ban itself survives the next export (monotone, never downgraded).
  const auto out = sup.export_carry();
  ASSERT_FALSE(out.entries.empty());
  EXPECT_TRUE(out.entries.front().banned);
}

TEST(SupervisorCarryTest, CarriedStrikesAloneDoNotBanUntilNextOffense) {
  // A committee arriving with its strike budget already exhausted is NOT
  // banned on adoption (membership is unknown then); the ban fires at its
  // next in-epoch offense instead.
  mvcom::core::SupervisorCarry carry;
  carry.entries.push_back({0, 3, false});
  EpochSupervisor sup(config(), 34);
  sup.adopt_carry(carry);
  EXPECT_EQ(sup.on_submission(honest(0, 600), 700.0, 50.0),
            Admission::kAdmitted);
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1800), 700.0, 50.0),
            Admission::kBanned);
}

TEST(RiskPolicyTest, TightenedStrikeBudgetNeverBansAFirstOffense) {
  SupervisorConfig c = config();
  c.risk.enabled = true;
  EpochSupervisor sup(c, 35);
  mvcom::core::SupervisorCarry carry;
  carry.risk = 1000.0;  // inherited panic from prior epochs
  sup.adopt_carry(carry);
  // The floor: however tight the budget gets, a first offense only
  // quarantines — instant bans would let a broad attack convert the whole
  // membership into bans.
  EXPECT_EQ(sup.effective_max_strikes(), 2);
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1200), 700.0, 50.0),
            Admission::kQuarantined);
  EXPECT_FALSE(sup.health(0)->banned);
}

TEST(RiskPolicyTest, BanIsSuppressedWhenItWouldCostUsableMembers) {
  // Risk-adaptive supervisors refuse to ban below the N_max line: with the
  // whole membership at 2 committees, even endless re-offending keeps the
  // offender quarantined (excluded from decisions) but never banned.
  SupervisorConfig c = config(2);
  c.risk.enabled = true;
  EpochSupervisor sup(c, 36);
  sup.on_submission(honest(1, 600), 700.0, 50.0);
  for (int offense = 0; offense < 6; ++offense) {
    EXPECT_EQ(sup.on_submission(
                  inflated(0, 600, 1200 + 100 * static_cast<std::uint64_t>(
                                              offense)),
                  700.0, 50.0),
              Admission::kQuarantined)
        << "offense " << offense;
  }
  EXPECT_FALSE(sup.health(0)->banned);
  EXPECT_GE(sup.health(0)->strikes, 6);
  EXPECT_FALSE(permits(sup.decide(), 0));  // still never admitted
  // The static supervisor keeps the paper's unconditional ban.
  EpochSupervisor fixed(config(2), 36);
  fixed.on_submission(honest(1, 600), 700.0, 50.0);
  fixed.on_submission(inflated(0, 600, 1200), 700.0, 50.0);
  fixed.on_submission(inflated(0, 600, 1300), 700.0, 50.0);
  EXPECT_EQ(fixed.on_submission(inflated(0, 600, 1400), 700.0, 50.0),
            Admission::kBanned);
}

TEST(RiskPolicyTest, BanStillFiresWhileMembershipExceedsNmax) {
  // Above the N_max cutoff bans are free (listening stopped there anyway):
  // 8 honest members + the offender = 9 unbanned > N_max = 8.
  SupervisorConfig c = config(10);
  c.risk.enabled = true;
  EpochSupervisor sup(c, 37);
  for (std::uint32_t i = 1; i <= 8; ++i) {
    sup.on_submission(honest(i, 600), 700.0, 50.0);
  }
  sup.on_submission(inflated(0, 600, 1200), 700.0, 50.0);
  sup.on_submission(inflated(0, 600, 1300), 700.0, 50.0);
  EXPECT_EQ(sup.on_submission(inflated(0, 600, 1400), 700.0, 50.0),
            Admission::kBanned);
  EXPECT_TRUE(sup.health(0)->banned);
}

TEST(RiskPolicyTest, StrikesRaiseNminWithTheorem2Accounting) {
  SupervisorConfig c = config(10, 4800);  // 8 × 600 fits exactly
  c.risk.enabled = true;
  c.risk.escalation_step = 1.0;  // +1 N_min per strike
  EpochSupervisor sup(c, 38);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 600), 700.0, 50.0);
  }
  const std::size_t base = sup.n_min();
  ASSERT_EQ(base, 5u);  // ⌈0.5 · 10⌉
  sup.on_submission(inflated(8, 600, 1800), 700.0, 50.0);
  sup.on_submission(inflated(9, 600, 1800), 700.0, 50.0);
  EXPECT_GT(sup.risk_score(), 0.0);
  EXPECT_EQ(sup.n_min(), base + 2);
  ASSERT_FALSE(sup.resizes().empty());
  const auto& last = sup.resizes().back();
  EXPECT_EQ(last.n_min_after, base + 2);
  EXPECT_GT(last.n_min_after, last.n_min_before);
  EXPECT_GE(last.perturbation_bound, 0.0);
  EXPECT_TRUE(last.within_bound);
  // The boosted floor still admits a feasible decision (the clamp's job).
  const auto d = sup.decide();
  EXPECT_TRUE(d.decision.feasible);
  EXPECT_GE(d.decision.permitted_ids.size(), base + 2);
}

TEST(RiskPolicyTest, ExportedRiskDecaysByCarryFactor) {
  SupervisorConfig c = config();
  c.risk.enabled = true;  // the carry keeps half the risk
  EpochSupervisor sup(c, 39);
  sup.on_submission(inflated(0, 600, 1200), 700.0, 50.0);
  sup.on_submission(inflated(1, 600, 1200), 700.0, 50.0);
  EXPECT_DOUBLE_EQ(sup.risk_score(), 2.0);  // one unit per strike
  const auto carry = sup.export_carry();
  EXPECT_DOUBLE_EQ(carry.risk, 1.0);
  ASSERT_EQ(carry.entries.size(), 2u);
}

TEST(RiskPolicyTest, NminBoostStopsBelowTheNmaxCutoff) {
  // N_max = ⌈0.8 · 10⌉ = 8: a boost to N_min = 8 would make bootstrap
  // unreachable, so however high the risk, the boost stops at 7.
  SupervisorConfig c = config(10, 1'000'000);
  c.risk.enabled = true;
  c.risk.escalation_step = 1.0;
  EpochSupervisor sup(c, 40);
  ASSERT_EQ(sup.n_max_count(), 8u);
  mvcom::core::SupervisorCarry carry;
  carry.risk = 100.0;
  sup.adopt_carry(carry);
  EXPECT_EQ(sup.n_min(), 5u);  // no live report can witness a boost yet
  for (std::uint32_t i = 0; i < 8; ++i) {
    sup.on_submission(honest(i, 600), 700.0, 50.0);
  }
  EXPECT_EQ(sup.n_min(), 7u);
  ASSERT_FALSE(sup.resizes().empty());
  EXPECT_EQ(sup.resizes().back().n_min_after, 7u);
  EXPECT_TRUE(sup.decide().decision.feasible);
}

TEST(SupervisorConfigTest, RejectsDegenerateParameters) {
  // The risk policy's escalation step divides the risk score, so an enabled
  // policy needs it positive; a disabled one never reads it.
  SupervisorConfig bad_escalation = config();
  bad_escalation.risk.enabled = true;
  bad_escalation.risk.escalation_step = 0.0;
  EXPECT_THROW(EpochSupervisor(bad_escalation, 1), std::invalid_argument);
  bad_escalation.risk.escalation_step = -1.0;
  EXPECT_THROW(EpochSupervisor(bad_escalation, 1), std::invalid_argument);
  bad_escalation.risk.escalation_step = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EpochSupervisor(bad_escalation, 1), std::invalid_argument);
  SupervisorConfig disabled = config();
  disabled.risk.escalation_step = 0.0;
  EXPECT_NO_THROW(EpochSupervisor(disabled, 1));
}

/// DES fixture: 8 committees on nodes 0..7, the observer on node 8. The
/// monitor probes every 30 s with a 12 s timeout and declares a committee
/// failed after K = 3 misses; links average 1 s, so a healthy probe's RTT
/// (about 2 s) passes.
class SupervisorMonitorTest : public ::testing::Test {
 protected:
  SupervisorMonitorTest()
      : network_(simulator_, mvcom::common::Rng(99),
                 std::make_shared<mvcom::net::ExponentialLatency>(
                     mvcom::common::SimTime(1.0)),
                 9),
        supervisor_(config(), 20) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      supervisor_.on_submission(honest(i, 700), 650.0, 40.0);
      supervisor_.register_committee_node(i, i);
    }
    supervisor_.attach_monitor(simulator_, network_, 8);
  }

  mvcom::sim::Simulator simulator_;
  mvcom::net::Network network_;
  EpochSupervisor supervisor_;
};

TEST_F(SupervisorMonitorTest, CrashIsDetectedAfterKMissedPings) {
  simulator_.schedule_at(mvcom::common::SimTime(100.0),
                         [this] { network_.set_failed(5, true); });
  simulator_.run_until(mvcom::common::SimTime(400.0));
  EXPECT_GE(supervisor_.failures_detected(), 1u);
  ASSERT_TRUE(supervisor_.health(5).has_value());
  EXPECT_TRUE(supervisor_.health(5)->failed);
  EXPECT_FALSE(reports_contain(supervisor_, 5));
  ASSERT_FALSE(supervisor_.failures().empty());
  EXPECT_EQ(supervisor_.failures()[0].committee_id, 5u);
  // Detection needs K = 3 consecutive missed probes at 30 s spacing.
  EXPECT_GE(supervisor_.failures()[0].sim_time_seconds, 100.0 + 2 * 30.0);
  // Backoff: the probing interval grew once the committee was declared down.
  EXPECT_GT(supervisor_.health(5)->ping_interval_seconds, 30.0);
}

TEST_F(SupervisorMonitorTest, SingleMissedPingIsTolerated) {
  // Down for one probe only (shorter than K×interval): no failure declared.
  simulator_.schedule_at(mvcom::common::SimTime(25.0),
                         [this] { network_.set_failed(3, true); });
  simulator_.schedule_at(mvcom::common::SimTime(45.0),
                         [this] { network_.set_failed(3, false); });
  simulator_.run_until(mvcom::common::SimTime(400.0));
  EXPECT_EQ(supervisor_.failures_detected(), 0u);
  EXPECT_TRUE(reports_contain(supervisor_, 3));
}

TEST_F(SupervisorMonitorTest, ReturningPingTriggersAutomaticRecovery) {
  simulator_.schedule_at(mvcom::common::SimTime(100.0),
                         [this] { network_.set_failed(5, true); });
  simulator_.schedule_at(mvcom::common::SimTime(500.0),
                         [this] { network_.set_failed(5, false); });
  simulator_.run_until(mvcom::common::SimTime(2500.0));
  EXPECT_GE(supervisor_.failures_detected(), 1u);
  EXPECT_GE(supervisor_.recoveries_detected(), 1u);
  EXPECT_FALSE(supervisor_.health(5)->failed);
  EXPECT_TRUE(supervisor_.health(5)->admitted);
  EXPECT_TRUE(reports_contain(supervisor_, 5));
  // The probing cadence resets once the committee answers again.
  EXPECT_DOUBLE_EQ(supervisor_.health(5)->ping_interval_seconds, 30.0);
}

TEST_F(SupervisorMonitorTest, TotalLossBurstTripsTheDetector) {
  // ping_rtt itself ignores loss; the supervisor models probe loss
  // explicitly, so a heavy, long loss burst must trip the K-missed detector
  // for at least one committee.
  simulator_.schedule_at(mvcom::common::SimTime(50.0), [this] {
    network_.set_loss_probability(0.95);
  });
  simulator_.schedule_at(mvcom::common::SimTime(350.0), [this] {
    network_.set_loss_probability(0.0);
  });
  simulator_.run_until(mvcom::common::SimTime(3000.0));
  EXPECT_GE(supervisor_.failures_detected(), 1u);
  // After the burst clears, every committee is eventually re-admitted.
  EXPECT_EQ(supervisor_.recoveries_detected(), supervisor_.failures_detected());
  EXPECT_EQ(supervisor_.reports().size(), 8u);
}

}  // namespace
