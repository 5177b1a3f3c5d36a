#pragma once
// FaultPlan chaos harness — schedulable fault injection for the
// EpochSupervisor, driven end to end on the discrete-event simulator:
// committee submissions arrive at their two-phase latencies, the
// supervisor's heartbeat monitor probes every committee over the simulated
// network, and a FaultPlan perturbs the run with crashes, crash-recoveries,
// straggler slowdowns, inflated-s_i misreports, verification-passing
// equivocations, and message-loss bursts. At the DDL the supervisor's
// graceful-degradation decide() produces the epoch answer; the harness
// certifies on every sample that the ladder never reports infeasible while
// a feasible selection exists, and copies out the Theorem-2 failure
// accounting.
//
// The same ChaosCommittee inputs can come from the fast calibrated workload
// path (txn::WorkloadGenerator) or from a real Elastico→PBFT epoch
// (sharding::ElasticoNetwork outcome reports) — see
// chaos_committees_from_reports.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/supervisor.hpp"
#include "obs/context.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

enum class FaultKind {
  kCrash,            // node fails at `at` and stays down
  kCrashRecover,     // node fails at `at`, recovers after `duration`
  kStragglerDelay,   // node slows by ×magnitude; pending submission +duration
  kMisreport,        // claimed s_i inflated ×magnitude (commitment unchanged)
  kEquivocate,       // second, verification-passing submission, different s_i
  kMessageLossBurst, // loss probability = magnitude for `duration`
  kForgeSubmission,  // verification-PASSING inflated submission: before the
                     // honest report is sent it is replaced outright (the lie
                     // is the only submission and admission cannot catch it);
                     // after, the forgery arrives as a second verified
                     // submission and is caught as an equivocation
  kJoin,             // a reserve committee joins; its report arrives at `at`
  kLeave,            // the victim leaves the membership for good at `at`
};
[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// One scheduled fault. `committee_id` names the victim (ignored for
/// kMessageLossBurst, which is network-wide; for kJoin it indexes the
/// ChaosConfig::reserve pool instead). Victims are resolved against the
/// LIVE membership at `at_seconds` — not the epoch-start population — so a
/// plan can target late joiners and never mis-fires on departed committees
/// (events whose victim is gone are skipped and counted).
struct FaultEvent {
  /// How `committee_id` names the victim.
  enum class Victim {
    kById,        // a concrete committee id, looked up among the live members
    kByLiveRank,  // the rank-th live member in join order at `at_seconds`
  };
  FaultKind kind = FaultKind::kCrash;
  std::uint32_t committee_id = 0;  // id, live rank, or reserve slot (kJoin)
  double at_seconds = 0.0;
  double duration_seconds = 0.0;  // kCrashRecover / kStragglerDelay / bursts
  double magnitude = 1.0;         // slowdown ×, inflation ×, burst loss prob
  Victim victim = Victim::kById;  // last: scripted {k,id,t,d,m} plans keep
                                  // their historical by-id aggregate shape
};

struct FaultPlanConfig {
  std::size_t crashes = 1;
  std::size_t crash_recovers = 1;
  std::size_t stragglers = 1;
  std::size_t misreports = 1;
  std::size_t equivocations = 0;
  std::size_t loss_bursts = 0;
  std::size_t joins = 0;      // drawn only when the run provides a reserve
  std::size_t leaves = 0;
  double horizon_seconds = 1500.0;  // faults drawn uniformly in [0, horizon)
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Draws a randomized schedule: victims are sampled uniformly as live
  /// ranks over [0, num_committees), times over [0, horizon). With no churn
  /// the live order equals the input order, so rank targeting reproduces the
  /// historical by-index behavior bit-for-bit. Join events draw reserve
  /// slots over [0, num_reserve) (none are drawn when num_reserve == 0).
  /// Deterministic per rng state — the property tests sweep seeds.
  [[nodiscard]] static FaultPlan randomized(const FaultPlanConfig& config,
                                            std::size_t num_committees,
                                            common::Rng& rng,
                                            std::size_t num_reserve = 0);
};

/// One committee as the harness drives it: its honest submission plus the
/// latencies the final committee measures. The committee answers pings on
/// the node whose index equals its position in the input vector.
struct ChaosCommittee {
  sharding::ShardSubmission submission;
  double formation_latency = 0.0;
  double consensus_latency = 0.0;
};

/// Builds honest chaos inputs from shard reports (either the calibrated
/// workload generator's or a real Elastico epoch's): each submission gets a
/// single count-binding entry carrying the report's s_i.
[[nodiscard]] std::vector<ChaosCommittee> chaos_committees_from_reports(
    std::span<const txn::ShardReport> reports);

struct ChaosConfig {
  SupervisorConfig supervisor{};
  double ddl_seconds = 1800.0;         // when decide() is taken
  double explore_tick_seconds = 20.0;  // SE exploration pump + sampling
  /// Committees available to kJoin events. FaultEvent::committee_id indexes
  /// this pool by position; each reserve committee answers pings on the node
  /// after the initial members' (allocated up front — Network's node count
  /// is fixed at construction).
  std::vector<ChaosCommittee> reserve{};
  /// Cross-epoch supervision state adopted before any admission (strikes,
  /// bans, decayed risk). nullptr = fresh supervisor.
  const SupervisorCarry* carry_in = nullptr;
  /// Observability sinks. When set, the harness wires every component
  /// (simulator, network, supervisor, SE scheduler) to them, attaches the
  /// simulated clock to the trace recorder for the duration of the run
  /// (detached again before the simulator dies), and records epoch
  /// lifecycle and fault-injection events.
  obs::ObsContext obs{};
};

/// One sampled point of the run (taken at every explore tick).
struct ChaosTimelinePoint {
  double at_seconds = 0.0;
  bool feasible = false;
  DecisionTier tier = DecisionTier::kInfeasible;
  double utility = 0.0;
};

struct ChaosReport {
  SupervisedDecision final_decision{};
  std::vector<ChaosTimelinePoint> timeline;
  std::vector<FailureRecord> failures;  // Theorem-2 accounting per failure
  // Admission statistics.
  std::uint64_t admitted = 0;
  std::uint64_t readmitted = 0;
  std::uint64_t quarantine_events = 0;
  std::uint64_t refused = 0;
  std::uint64_t dropped_submissions = 0;  // sender was down at send time
  std::vector<std::uint32_t> quarantined_ids;
  std::vector<std::uint32_t> banned_ids;
  // Detector statistics.
  std::uint64_t failures_detected = 0;
  std::uint64_t recoveries_detected = 0;
  // Churn statistics.
  std::uint64_t joins = 0;   // kJoin events that delivered a report
  std::uint64_t leaves = 0;  // kLeave events applied
  /// Events whose victim was not live at fire time (already left, not yet
  /// joined, unknown id/rank) — skipped instead of hitting a stale index.
  std::uint64_t skipped_events = 0;
  /// The live reports backing the final decision (claims as admitted — an
  /// undetected forgery shows up here with its inflated s_i).
  std::vector<txn::ShardReport> final_reports;
  // Risk-adaptive sizing outcome (empty/static when the policy is off).
  std::vector<ResizeRecord> resizes;
  std::size_t effective_n_min = 0;  // scheduler floor at the DDL
  double risk_score = 0.0;
  /// Supervision state the next epoch should adopt (ChaosConfig::carry_in).
  SupervisorCarry carry_out{};
  /// True if any sampled decide() reported infeasible while an
  /// n_min_witness existed on the live set — the acceptance criterion the
  /// ladder must never violate.
  bool infeasible_while_feasible = false;
};

/// Runs one supervised epoch under the fault plan and returns the full
/// report. Deterministic per (inputs, seed).
[[nodiscard]] ChaosReport run_chaos_epoch(
    const std::vector<ChaosCommittee>& committees, const FaultPlan& plan,
    const ChaosConfig& config, std::uint64_t seed);

}  // namespace mvcom::core
