// Tests for the FaultPlan chaos harness: randomized-plan determinism,
// scripted single-fault scenarios (misreport quarantine, crash detection,
// crash-recover rejoin), a randomized-schedule property sweep asserting the
// "never infeasible while a feasible selection exists" acceptance criterion,
// and the end-to-end Elastico→PBFT→supervisor path.

#include "mvcom/fault_injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "sharding/elastico.hpp"
#include "sharding/verification.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::core::ChaosCommittee;
using mvcom::core::ChaosConfig;
using mvcom::core::ChaosReport;
using mvcom::core::chaos_committees_from_reports;
using mvcom::core::FaultEvent;
using mvcom::core::FaultKind;
using mvcom::core::FaultPlan;
using mvcom::core::FaultPlanConfig;
using mvcom::core::kFaultHorizonSeconds;
using mvcom::core::run_chaos_epoch;

/// Calibrated-workload committees (the paper's fast path, §VI-A).
std::vector<ChaosCommittee> workload_committees(std::size_t n,
                                                std::uint64_t seed) {
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 256;
  tc.target_total_txs = 256'000;
  Rng trace_rng(seed);
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = n;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  Rng rng(seed + 1);
  return chaos_committees_from_reports(gen.epoch(rng).reports);
}

ChaosConfig chaos_config(std::size_t n, std::uint64_t capacity) {
  ChaosConfig c;
  c.supervisor.scheduler.capacity = capacity;
  c.supervisor.scheduler.expected_committees = n;
  c.supervisor.scheduler.se.threads = 2;
  c.ddl_seconds = 1800.0;
  return c;
}

bool contains(const std::vector<std::uint32_t>& ids, std::uint32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(FaultPlanTest, RandomizedPlanIsDeterministicSortedAndComplete) {
  FaultPlanConfig config;
  config.crashes = 2;
  config.crash_recovers = 2;
  config.stragglers = 2;
  config.misreports = 2;
  config.equivocations = 1;
  config.loss_bursts = 1;
  Rng a(7);
  Rng b(7);
  const FaultPlan plan_a = FaultPlan::randomized(config, 12, a);
  const FaultPlan plan_b = FaultPlan::randomized(config, 12, b);
  ASSERT_EQ(plan_a.events.size(), 10u);
  ASSERT_EQ(plan_b.events.size(), plan_a.events.size());
  for (std::size_t i = 0; i < plan_a.events.size(); ++i) {
    EXPECT_EQ(plan_a.events[i].kind, plan_b.events[i].kind);
    EXPECT_EQ(plan_a.events[i].committee_id, plan_b.events[i].committee_id);
    EXPECT_DOUBLE_EQ(plan_a.events[i].at_seconds, plan_b.events[i].at_seconds);
    EXPECT_DOUBLE_EQ(plan_a.events[i].magnitude, plan_b.events[i].magnitude);
    EXPECT_LT(plan_a.events[i].committee_id, 12u);
    EXPECT_GE(plan_a.events[i].at_seconds, 0.0);
    EXPECT_LT(plan_a.events[i].at_seconds, kFaultHorizonSeconds);
    if (i > 0) {
      EXPECT_GE(plan_a.events[i].at_seconds, plan_a.events[i - 1].at_seconds);
    }
  }
}

TEST(FaultPlanTest, ChaosCommitteesCarryVerifiableSubmissions) {
  const auto committees = workload_committees(10, 3);
  ASSERT_EQ(committees.size(), 10u);
  for (const ChaosCommittee& c : committees) {
    EXPECT_FALSE(mvcom::sharding::verify_submission(c.submission).has_value());
    EXPECT_GT(c.submission.claimed_tx_count, 0u);
    EXPECT_GT(c.formation_latency, 0.0);
  }
}

TEST(ChaosEpochTest, ScriptedMisreportIsQuarantinedAndExcluded) {
  const auto committees = workload_committees(10, 4);
  FaultPlan plan;
  // t = 1 s is before every two-phase delivery, so the inflated claim is
  // the committee's *only* submission — it must never be admitted.
  plan.events.push_back(
      {FaultKind::kMisreport, committees[4].submission.committee_id, 1.0, 0.0,
       3.0});
  const ChaosReport report =
      run_chaos_epoch(committees, plan, chaos_config(10, 10'000), 11);
  const std::uint32_t victim = committees[4].submission.committee_id;
  EXPECT_GE(report.quarantine_events, 1u);
  EXPECT_TRUE(contains(report.quarantined_ids, victim) ||
              contains(report.banned_ids, victim));
  EXPECT_FALSE(contains(report.final_decision.decision.permitted_ids, victim));
  EXPECT_TRUE(report.final_decision.decision.feasible);
  EXPECT_FALSE(report.infeasible_while_feasible);
}

TEST(ChaosEpochTest, ScriptedCrashIsDetectedAndExcluded) {
  const auto committees = workload_committees(10, 5);
  const std::uint32_t victim = committees[2].submission.committee_id;
  FaultPlan plan;
  plan.events.push_back({FaultKind::kCrash, victim, 50.0, 0.0, 1.0});
  const ChaosReport report =
      run_chaos_epoch(committees, plan, chaos_config(10, 10'000), 12);
  EXPECT_GE(report.failures_detected, 1u);
  // Crashed at 50 s, before its submission could even be sent: it is
  // dropped at send time and never appears in the decision.
  EXPECT_GE(report.dropped_submissions, 1u);
  EXPECT_FALSE(contains(report.final_decision.decision.permitted_ids, victim));
  EXPECT_TRUE(report.final_decision.decision.feasible);
  EXPECT_FALSE(report.infeasible_while_feasible);
  EXPECT_FALSE(report.timeline.empty());
}

TEST(ChaosEpochTest, CrashRecoverIsReadmittedByTheMonitor) {
  const auto committees = workload_committees(10, 6);
  const std::uint32_t victim = committees[7].submission.committee_id;
  // Crash strictly after the victim's submission was delivered (so a
  // FailureRecord exists), and leave room before the DDL for the
  // backed-off probes to see it return.
  const double delivered =
      committees[7].formation_latency + committees[7].consensus_latency;
  FaultPlan plan;
  plan.events.push_back(
      {FaultKind::kCrashRecover, victim, delivered + 100.0, 200.0, 1.0});
  ChaosConfig config = chaos_config(10, 10'000);
  config.ddl_seconds = delivered + 1200.0;
  const ChaosReport report = run_chaos_epoch(committees, plan, config, 13);
  EXPECT_GE(report.failures_detected, 1u);
  EXPECT_GE(report.recoveries_detected, 1u);
  EXPECT_TRUE(report.final_decision.decision.feasible);
  EXPECT_FALSE(report.infeasible_while_feasible);
  // Theorem-2 accounting exists for the detected failure and held.
  ASSERT_FALSE(report.failures.empty());
  EXPECT_TRUE(report.final_decision.theorem2_respected);
}

TEST(ChaosEpochTest, RunsAreDeterministicPerSeed) {
  const auto committees = workload_committees(10, 7);
  FaultPlanConfig pc;
  Rng plan_rng(21);
  const FaultPlan plan = FaultPlan::randomized(pc, committees.size(), plan_rng);
  const ChaosConfig config = chaos_config(10, 10'000);
  const ChaosReport a = run_chaos_epoch(committees, plan, config, 31);
  const ChaosReport b = run_chaos_epoch(committees, plan, config, 31);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timeline[i].utility, b.timeline[i].utility);
    EXPECT_EQ(a.timeline[i].feasible, b.timeline[i].feasible);
  }
  EXPECT_EQ(a.failures_detected, b.failures_detected);
  EXPECT_EQ(a.recoveries_detected, b.recoveries_detected);
  EXPECT_DOUBLE_EQ(a.final_decision.decision.utility,
                   b.final_decision.decision.utility);
}

// Heartbeat probes reschedule themselves until the DDL, so a NaN or +∞ DDL
// would never end the epoch, and a DDL at or below 0 decides before any
// committee could arrive. Both are refused up front.
TEST(ChaosEpochTest, RejectsNonFiniteOrNonPositiveDdl) {
  const auto committees = workload_committees(5, 7);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double ddl : {0.0, -5.0, -kInf, kInf,
                           std::numeric_limits<double>::quiet_NaN()}) {
    ChaosConfig config = chaos_config(5, 3'000);
    config.ddl_seconds = ddl;
    EXPECT_THROW((void)run_chaos_epoch(committees, FaultPlan{}, config, 1),
                 std::invalid_argument)
        << "ddl " << ddl;
  }
}

TEST(ChaosEpochTest, RandomizedSchedulesNeverReportInfeasibleWhileFeasible) {
  // The issue's acceptance criterion, swept across randomized fault
  // schedules: crash + misreport + straggler (and friends) must never make
  // the ladder answer "infeasible" while a feasible selection exists.
  const auto committees = workload_committees(12, 8);
  std::uint64_t total = 0;
  for (const auto& c : committees) total += c.submission.claimed_tx_count;
  FaultPlanConfig pc;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.stragglers = 1;
  pc.misreports = 1;
  pc.equivocations = 1;
  pc.loss_bursts = 1;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng plan_rng(seed * 1000);
    const FaultPlan plan =
        FaultPlan::randomized(pc, committees.size(), plan_rng);
    // Generous capacity: any N_min live committees are feasible, so the
    // run-level criterion exercises the N_min leg of the ladder.
    const ChaosReport report =
        run_chaos_epoch(committees, plan, chaos_config(12, total), seed);
    EXPECT_FALSE(report.infeasible_while_feasible) << "seed " << seed;
    EXPECT_TRUE(report.final_decision.theorem2_respected) << "seed " << seed;
    EXPECT_TRUE(report.final_decision.decision.feasible) << "seed " << seed;
  }
}

TEST(ChaosEpochTest, BindingCapacitySweepAlsoHoldsTheCriterion) {
  // Same sweep with the paper's binding capacity (Ĉ = 1000·|I| against
  // ~1000-TX shards) so SE bootstrap and the repair tiers actually engage.
  const auto committees = workload_committees(12, 9);
  FaultPlanConfig pc;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.stragglers = 1;
  pc.misreports = 1;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng plan_rng(seed * 777);
    const FaultPlan plan =
        FaultPlan::randomized(pc, committees.size(), plan_rng);
    const ChaosReport report =
        run_chaos_epoch(committees, plan, chaos_config(12, 12'000), seed);
    EXPECT_FALSE(report.infeasible_while_feasible) << "seed " << seed;
    EXPECT_TRUE(report.final_decision.theorem2_respected) << "seed " << seed;
  }
}

TEST(ChaosEpochTest, EventAimedAtDepartedVictimIsSkippedNotMisfired) {
  // Satellite regression: victims resolve against the LIVE membership at
  // fire time. A crash aimed (by id) at a committee that already left must
  // be skipped and counted — not applied to a stale index.
  const auto committees = workload_committees(10, 14);
  const std::uint32_t departed = committees[3].submission.committee_id;
  FaultPlan plan;
  FaultEvent leave;
  leave.kind = FaultKind::kLeave;
  leave.committee_id = departed;
  leave.at_seconds = 10.0;
  plan.events.push_back(leave);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.committee_id = departed;  // no longer live when this fires
  crash.at_seconds = 100.0;
  plan.events.push_back(crash);
  ChaosConfig config = chaos_config(10, 10'000);
  config.supervisor.scheduler.n_max_fraction = 1.0;  // admit all 9 live
  const ChaosReport report = run_chaos_epoch(committees, plan, config, 41);
  EXPECT_EQ(report.leaves, 1u);
  EXPECT_EQ(report.skipped_events, 1u);
  // Nobody else got hit: every remaining committee still delivered.
  EXPECT_EQ(report.admitted, committees.size() - 1);
  EXPECT_FALSE(contains(report.final_decision.decision.permitted_ids,
                        departed));
  EXPECT_FALSE(report.infeasible_while_feasible);
}

TEST(ChaosEpochTest, LiveRankVictimsResolveAgainstPostChurnMembership) {
  // kByLiveRank rank r means "the r-th live member in join order AT FIRE
  // TIME". After committees[1] leaves, rank 1 is committees[2] — a stale
  // epoch-start resolution would have crashed committees[1] again.
  const auto committees = workload_committees(10, 15);
  FaultPlan plan;
  FaultEvent leave;
  leave.kind = FaultKind::kLeave;
  leave.committee_id = committees[1].submission.committee_id;
  leave.at_seconds = 10.0;
  plan.events.push_back(leave);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.victim = FaultEvent::Victim::kByLiveRank;
  crash.committee_id = 1;  // live rank, not an id
  crash.at_seconds = 50.0;
  plan.events.push_back(crash);
  const ChaosReport report =
      run_chaos_epoch(committees, plan, chaos_config(10, 10'000), 42);
  EXPECT_EQ(report.leaves, 1u);
  EXPECT_EQ(report.skipped_events, 0u);
  // The crash landed on committees[2] before its submission went out.
  EXPECT_GE(report.dropped_submissions, 1u);
  EXPECT_FALSE(contains(report.final_decision.decision.permitted_ids,
                        committees[2].submission.committee_id));
  // Both churn victims are out; everyone else delivered.
  EXPECT_EQ(report.admitted, committees.size() - 2);
  // A rank beyond the live membership is skipped, never clamped.
  FaultEvent overflow = crash;
  overflow.committee_id = 64;
  overflow.at_seconds = 60.0;
  FaultPlan plan2 = plan;
  plan2.events.push_back(overflow);
  const ChaosReport report2 =
      run_chaos_epoch(committees, plan2, chaos_config(10, 10'000), 42);
  EXPECT_EQ(report2.skipped_events, 1u);
}

TEST(ChaosEpochTest, ForgerySilentlyReplacesBeforeDeliveryAndStrikesAfter) {
  // The two faces of kForgeSubmission that targeted corruption straddles:
  // before the honest report is delivered the forgery REPLACES it (the only
  // submission that ever arrives verifies, so admission cannot object);
  // after delivery it lands as a second verified claim and is struck as an
  // equivocation — the detectable signal the risk policy feeds on.
  const auto committees = workload_committees(10, 16);
  const std::uint32_t victim = committees[5].submission.committee_id;
  const std::uint64_t honest_claim = committees[5].submission.claimed_tx_count;

  FaultPlan silent;
  silent.events.push_back(
      {FaultKind::kForgeSubmission, victim, 1.0, 0.0, 3.0});
  const ChaosReport pre =
      run_chaos_epoch(committees, silent, chaos_config(10, 50'000), 43);
  EXPECT_FALSE(contains(pre.quarantined_ids, victim));
  EXPECT_FALSE(contains(pre.banned_ids, victim));
  bool saw_inflated = false;
  for (const auto& r : pre.final_reports) {
    if (r.committee_id == victim) {
      EXPECT_GT(r.tx_count, honest_claim);  // the forged s_i was admitted
      saw_inflated = true;
    }
  }
  EXPECT_TRUE(saw_inflated);

  FaultPlan late;
  late.events.push_back(
      {FaultKind::kForgeSubmission, victim, 1700.0, 0.0, 3.0});
  const ChaosReport post =
      run_chaos_epoch(committees, late, chaos_config(10, 50'000), 43);
  EXPECT_GE(post.quarantine_events, 1u);
  EXPECT_TRUE(contains(post.quarantined_ids, victim) ||
              contains(post.banned_ids, victim));
  EXPECT_FALSE(
      contains(post.final_decision.decision.permitted_ids, victim));
}

TEST(ChaosEpochTest, JoinAdmitsReserveCommitteeAndOverflowSlotIsSkipped) {
  const auto all = workload_committees(12, 17);
  const std::vector<ChaosCommittee> initial(all.begin(), all.begin() + 10);
  ChaosConfig config = chaos_config(12, 20'000);
  config.supervisor.scheduler.n_max_fraction = 1.0;  // room for the joiner
  config.reserve.assign(all.begin() + 10, all.end());
  const std::uint32_t joiner = all[10].submission.committee_id;
  FaultPlan plan;
  FaultEvent join;
  join.kind = FaultKind::kJoin;
  join.committee_id = 0;  // reserve slot index, not a committee id
  join.at_seconds = 700.0;
  plan.events.push_back(join);
  FaultEvent overflow = join;
  overflow.committee_id = 9;  // only 2 reserve slots exist
  overflow.at_seconds = 710.0;
  plan.events.push_back(overflow);
  const ChaosReport report = run_chaos_epoch(initial, plan, config, 44);
  EXPECT_EQ(report.joins, 1u);
  EXPECT_EQ(report.skipped_events, 1u);
  bool joiner_reported = false;
  for (const auto& r : report.final_reports) {
    joiner_reported |= r.committee_id == joiner;
  }
  EXPECT_TRUE(joiner_reported);
  EXPECT_FALSE(report.infeasible_while_feasible);
}

TEST(ChaosEpochTest, ElasticoEpochFeedsTheChaosHarnessEndToEnd) {
  // End-to-end: a real Elastico epoch (PoW formation → PBFT per committee)
  // produces the shard reports, which become verifiable submissions driven
  // through the supervised chaos epoch.
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 128;
  tc.target_total_txs = 128'000;
  Rng trace_rng(1);
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);

  mvcom::sharding::ElasticoConfig ec;
  ec.num_nodes = 96;
  ec.committee_size = 6;
  ec.committee_bits = 3;  // 8 committees: 7 member + 1 final
  ec.link_latency_mean = mvcom::common::SimTime(1.0);
  ec.pbft.verification_mean = mvcom::common::SimTime(0.2);
  mvcom::sharding::ElasticoNetwork network(ec, Rng(5));
  const auto outcome = network.run_epoch(trace);
  const auto reports = outcome.reports();
  ASSERT_GE(reports.size(), 4u);

  const auto committees = chaos_committees_from_reports(reports);
  std::uint64_t total = 0;
  double max_latency = 0.0;
  for (const auto& c : committees) {
    total += c.submission.claimed_tx_count;
    max_latency = std::max(
        max_latency, c.formation_latency + c.consensus_latency);
  }
  ChaosConfig config = chaos_config(committees.size(), total);
  config.ddl_seconds = max_latency + 600.0;  // all deliveries + detection

  FaultPlan plan;
  plan.events.push_back({FaultKind::kCrash,
                         committees[0].submission.committee_id,
                         max_latency + 10.0, 0.0, 1.0});
  const ChaosReport report = run_chaos_epoch(committees, plan, config, 17);
  EXPECT_GE(report.admitted, committees.size() - 1);
  EXPECT_GE(report.failures_detected, 1u);
  EXPECT_TRUE(report.final_decision.decision.feasible);
  EXPECT_FALSE(report.infeasible_while_feasible);
}

}  // namespace
