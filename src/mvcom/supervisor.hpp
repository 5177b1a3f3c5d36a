#pragma once
// EpochSupervisor — the final committee's deployment loop for one epoch:
// Alg. 1 as Fig. 5/6 run it, inside §V's failure detector and Theorem 2's
// bound. Committee reports arrive as their committees finish; the loop
// bootstraps SE once scheduling becomes worthwhile (line 1: more than N_min
// arrivals AND Σ s_i > Ĉ), explores between events, handles leaves and
// rejoins (lines 8–12), and stops listening once N_max of the expected
// member committees have arrived (line 29). One object owns the epoch's
// committee state: the live reports (in arrival order, index-aligned with
// SE's instance), Σ s_i, N_min, the N_max cutoff, SE itself, and each
// committee's CommitteeHealth.
//
// Per epoch: construct one supervisor, pass it each arriving submission
// (on_submission), let the heartbeat monitor or the caller declare failures
// and recoveries, call explore() between events, and take decide() at the
// DDL.
//
// Alg. 1 alone trusts every claimed s_i and relies on callers to detect
// failures. The supervisor adds three robustness subsystems:
//
//  1. Verified admission — committees submit a sharding::ShardSubmission
//     whose Merkle root binds per-block transaction counts. Submissions are
//     checked with verify_submission before their s_i ever reaches the
//     scheduling instance; a committee whose claimed s_i or root disagrees
//     is quarantined with a per-committee strike count. A later honest
//     submission re-admits it, until the strike budget is exhausted and the
//     committee is banned for the epoch. A verified-but-different
//     re-submission from a live committee (equivocation) also strikes.
//
//  2. Active failure detection — a heartbeat monitor driven by the DES
//     (sim::Simulator) using Network::ping_rtt, the §V-A failure detector:
//     pings that exceed a timeout (or are lost) count as missed; K
//     consecutive misses declare on_failure; probing backs off
//     exponentially while a committee is down, and a returning ping
//     triggers automatic on_recovery re-admitting the last verified report.
//     Fig. 9-style leave/rejoin thus emerges from the network model instead
//     of being scripted by the caller.
//
//  3. Graceful-degradation decide() — a documented fallback ladder so the
//     epoch always produces the best answer available at the DDL:
//       se-best         the SE incumbent, aligned_se_selection() (always
//                       feasible when non-empty: SE only keeps chains
//                       within Ĉ and at or above N_min)
//       greedy-scratch  density greedy over the live set, with a
//                       guaranteed minimal-feasible fill (the N_min
//                       smallest shards) as last resort — this rung
//                       succeeds whenever ANY feasible selection exists
//                       (at N_min = 0 that is always, possibly as the
//                       empty selection)
//       infeasible      with a machine-readable reason
//     This ladder is the only code that turns live reports into an epoch's
//     decision. After every failure the Theorem-2 perturbation bound (the
//     best ladder utility on the trimmed space) is recorded and surfaced in
//     the decision, so callers can check that the observed utility dip
//     respects the theory.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"
#include "mvcom/se_scheduler.hpp"
#include "net/network.hpp"
#include "sharding/verification.hpp"
#include "sim/simulator.hpp"

namespace mvcom::obs {
class LogHistogram;
}  // namespace mvcom::obs

namespace mvcom::core {

/// Outcome of one submission presented to the supervisor.
enum class Admission {
  kAdmitted,      // verified and entered the scheduling instance
  kReadmitted,    // verified after an earlier quarantine/failure
  kQuarantined,   // verification failed or equivocation detected; struck
  kBanned,        // strike budget exhausted this epoch; dropped outright
  kDuplicate,     // identical re-submission from a live committee; ignored
  kRefused,       // listening stopped at N_max, or Σ s_i would wrap
};
[[nodiscard]] const char* to_string(Admission admission) noexcept;

/// Which rung of the degradation ladder produced the decision. The values
/// are folded into the campaign decision digest and the ladder trace
/// instants, so they stay fixed; 1 belonged to a deleted rung.
enum class DecisionTier {
  kSeBest = 0,
  kGreedyScratch = 2,
  kInfeasible = 3,
};
[[nodiscard]] const char* to_string(DecisionTier tier) noexcept;

/// Why no feasible selection exists (DecisionTier::kInfeasible only).
enum class InfeasibleReason {
  kNone,                  // decision is feasible
  kNoLiveCommittees,      // nothing admitted (or everything failed)
  kNminUnreachable,       // fewer live committees than N_min
  kCapacityInsufficient,  // even the N_min smallest shards exceed Ĉ
};
[[nodiscard]] const char* to_string(InfeasibleReason reason) noexcept;

/// Risk-adaptive committee-sizing policy (Blockguard / Zhang et al.: the
/// committee structure must respond to the observed threat). The supervisor
/// keeps a scalar risk score fed by detectable adversary signals — strikes
/// (failed verifications + equivocations) and detector-declared failures —
/// and translates it into two defensive knobs:
///
///  * N_min escalation — raise the scheduler's N_min by one per
///    `escalation_step` of risk (up to `boost_cap`). A wider mandatory
///    selection under a binding capacity squeezes out inflated claims: the
///    knapsack must fit more committees, so a few huge (forged) shards can
///    no longer crowd out the honest ones.
///  * Strike-budget tightening — lower the effective strike budget by one per
///    4 units of risk (floor 2 — a first offense never bans, else a
///    broad attack converts the membership into bans and collapses
///    liveness), so quarantine→ban escalation speeds up under attack.
///
/// Every resize is clamped so that an n_min_witness (problem.hpp) still
/// exists on the live reports at the raised N_min (and bootstrap stays
/// reachable, N_min < N_max): the defense must never cause an infeasible
/// epoch that a static supervisor would have solved. Each applied resize
/// records Theorem-2 perturbation accounting (ResizeRecord), extending the
/// failure bound to adaptive resizing: shrinking the feasible space
/// perturbs the stationary optimum by at most the best utility on the
/// larger space.
struct RiskPolicyConfig {
  bool enabled = false;
  double escalation_step = 2.0; // risk per +1 N_min
  std::size_t boost_cap = 8;    // max N_min raise over the static base
};

/// Theorem-2 accounting of one risk-adaptive N_min resize, mirroring
/// FailureRecord: the feasible-space change perturbs the certified optimum
/// by at most the best utility on the larger of the two spaces.
struct ResizeRecord {
  double sim_time_seconds = 0.0;
  std::size_t n_min_before = 0;
  std::size_t n_min_after = 0;
  double risk_score = 0.0;
  double utility_before = 0.0;
  double utility_after = 0.0;
  double perturbation_bound = 0.0;
  bool within_bound = true;
};

/// Cross-epoch supervision state: strike counts and bans survive epoch
/// boundaries (repeated equivocation escalates monotonically — a banned
/// committee stays banned), and the decayed risk score seeds the next
/// epoch's risk-adaptive policy.
struct SupervisorCarry {
  struct Entry {
    std::uint32_t committee_id = 0;
    int strikes = 0;
    bool banned = false;
  };
  std::vector<Entry> entries;  // ascending committee_id
  double risk = 0.0;
};

/// Runtime record of one committee failure and its Theorem-2 accounting.
struct FailureRecord {
  std::uint32_t committee_id = 0;
  double sim_time_seconds = 0.0;    // 0 when no monitor drives the clock
  double utility_before = 0.0;      // best ladder utility just before trim
  double utility_after = 0.0;       // best ladder utility on the trimmed set
  /// Theorem 2: ‖q*uᵀ − q̃uᵀ‖ ≤ max_{g∈G} U_g. The bound is evaluated with
  /// the best utility the ladder can certify on the trimmed space G.
  double perturbation_bound = 0.0;
  bool within_bound = true;         // |before − after| ≤ bound
};

/// Per-committee robustness state.
struct CommitteeHealth {
  bool admitted = false;      // currently contributing to the instance
  /// Its live report was removed (failure or strike) and has not re-entered
  /// since: it may rejoin past the N_max cutoff (§VI-D, Fig. 9(a)).
  bool evicted = false;
  bool quarantined = false;   // last submission struck; awaiting honesty
  bool banned = false;        // strikes exhausted; refused for the epoch
  bool failed = false;        // declared failed (detector or caller)
  int strikes = 0;
  int missed_pings = 0;
  std::uint64_t verified_txs = 0;  // s_i of the last verified submission
  double ping_interval_seconds = 0.0;  // current (possibly backed-off)
};

/// Alg. 1's parameters for one epoch.
struct OnlineSchedulerConfig {
  double alpha = 1.5;
  std::uint64_t capacity = 0;     // Ĉ — required, > 0
  /// Number of member committees in the epoch; N_min/N_max fractions apply
  /// to this count (paper §VI-A: N_min = 50%·|I|, N_max = 80%). Both round
  /// UP: N_min = ⌈n_min_fraction·expected⌉ (Eq. (3) is a lower bound on a
  /// committee count, so fractional targets cannot truncate down), and the
  /// pair must satisfy N_min < ⌈n_max_fraction·expected⌉ — bootstrap needs
  /// strictly more than N_min arrivals before listening stops at N_max
  /// (validated at construction).
  std::size_t expected_committees = 0;
  double n_min_fraction = 0.5;
  double n_max_fraction = 0.8;
  SeParams se{};
};

/// The strike budget and the heartbeat monitor's timing are constants in
/// supervisor.cpp.
struct SupervisorConfig {
  OnlineSchedulerConfig scheduler{};
  /// Risk-adaptive committee sizing (disabled by default — the static
  /// supervisor behaves exactly as before).
  RiskPolicyConfig risk{};
};

/// The selection a ladder rung produced, as committee ids and totals.
struct SchedulingDecision {
  bool feasible = false;
  std::vector<std::uint32_t> permitted_ids;  // committee ids to include
  double utility = 0.0;
  double valuable_degree = 0.0;
  std::uint64_t permitted_txs = 0;
};

/// The epoch's final, tier-attributed answer.
struct SupervisedDecision {
  SchedulingDecision decision{};
  DecisionTier tier = DecisionTier::kInfeasible;
  InfeasibleReason reason = InfeasibleReason::kNoLiveCommittees;
  /// Max Theorem-2 bound across the epoch's failures (0 when none).
  double perturbation_bound = 0.0;
  /// True iff every recorded failure's utility dip respected its bound.
  bool theorem2_respected = true;
};

class EpochSupervisor {
 public:
  /// Throws std::invalid_argument on a zero capacity or expected count, a
  /// fraction outside [0, 1] (NaN too), an N_min at or above the N_max
  /// cutoff, or an enabled risk policy with a non-positive step.
  EpochSupervisor(SupervisorConfig config, std::uint64_t seed);

  /// Verified admission: checks the count-binding Merkle commitment, then
  /// admits the *verified* s_i (never the raw claim) to the live reports.
  Admission on_submission(const sharding::ShardSubmission& submission,
                          double formation_latency, double consensus_latency);

  /// Declares a committee failed (monitor-driven or manual §V-A signal).
  /// Records the Theorem-2 perturbation accounting when the committee was
  /// contributing to the instance.
  void on_failure(std::uint32_t committee_id);

  /// Declares a failed committee recovered; re-admits its last verified
  /// report unless it is quarantined/banned. Returns true when the report
  /// re-entered the instance.
  bool on_recovery(std::uint32_t committee_id);

  /// Runs `iterations` SE iterations once SE has bootstrapped. SE gets no
  /// pool: its Γ explorers step serially on the calling thread.
  void explore(std::size_t iterations);

  /// Attaches the heartbeat monitor: `observer` is the final committee's
  /// node; registered committees are probed on `simulator`'s clock.
  void attach_monitor(sim::Simulator& simulator, net::Network& network,
                      net::NodeId observer);
  /// Maps a committee id to the network node that answers its pings and
  /// schedules its first probe (monitor must be attached first or the
  /// registration simply records the mapping).
  void register_committee_node(std::uint32_t committee_id, net::NodeId node);

  /// The graceful-degradation ladder (header comment). Const and
  /// side-effect-free on supervision state: callable at any instant, not
  /// only the DDL (attached observability instruments do record each call).
  [[nodiscard]] SupervisedDecision decide() const;

  /// Attaches observability, to SE too (including one a later bootstrap
  /// creates).
  void set_obs(obs::ObsContext obs);

  /// Adopts cross-epoch supervision state (call before any submission):
  /// carried strikes and bans pre-populate the health table — a committee
  /// banned last epoch is refused outright this epoch — and the carried
  /// risk score seeds the risk-adaptive policy.
  void adopt_carry(const SupervisorCarry& carry);
  /// Exports the state the next epoch's supervisor should adopt: every
  /// committee with strikes or a ban, plus half the risk score.
  [[nodiscard]] SupervisorCarry export_carry() const;

  // -- Introspection -------------------------------------------------------
  /// The live reports backing decisions, in arrival order.
  [[nodiscard]] const std::vector<txn::ShardReport>& reports() const noexcept {
    return reports_;
  }
  /// Eq. (3)'s floor in force (the static N_min plus any risk boost).
  [[nodiscard]] std::size_t n_min() const noexcept { return n_min_; }
  /// The N_max listening cutoff: arrivals stop once this many are live.
  [[nodiscard]] std::size_t n_max_count() const noexcept {
    return n_max_count_;
  }
  /// Alg. 1 line 1: has exploration started?
  [[nodiscard]] bool bootstrapped() const noexcept { return se_.has_value(); }
  /// Alg. 1 line 29: does the report door still accept new committees?
  [[nodiscard]] bool listening() const noexcept { return listening_; }
  /// SE's current best selection, index-aligned with reports(): the ladder's
  /// se-best rung. Empty before bootstrap, when SE holds no feasible
  /// selection, or when SE's committees do not match the live reports id
  /// for id.
  [[nodiscard]] Selection aligned_se_selection() const;
  [[nodiscard]] std::optional<CommitteeHealth> health(
      std::uint32_t committee_id) const;
  [[nodiscard]] const std::vector<FailureRecord>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] std::vector<std::uint32_t> quarantined_ids() const;
  [[nodiscard]] std::vector<std::uint32_t> banned_ids() const;
  [[nodiscard]] std::uint64_t failures_detected() const noexcept {
    return failures_detected_;
  }
  [[nodiscard]] std::uint64_t recoveries_detected() const noexcept {
    return recoveries_detected_;
  }
  /// Current risk score: carried risk + weighted strikes and failures.
  [[nodiscard]] double risk_score() const noexcept;
  /// Theorem-2 accounting of every applied risk-adaptive resize.
  [[nodiscard]] const std::vector<ResizeRecord>& resizes() const noexcept {
    return resizes_;
  }
  /// The (possibly risk-tightened) strike budget currently in force.
  [[nodiscard]] int effective_max_strikes() const noexcept;

 private:
  /// on_submission's admission logic; the public wrapper adds the
  /// observability record of the outcome.
  Admission admit_submission(const sharding::ShardSubmission& submission,
                             double formation_latency,
                             double consensus_latency);
  /// Alg. 1's report door: appends a verified report to the live set, feeds
  /// or bootstraps SE, stops listening at N_max, and marks `health`
  /// admitted. Refused when Σ s_i would wrap, or when listening stopped and
  /// `health` is not evicted (an evicted report rejoins past N_max: its
  /// committee was already counted among the arrived, §VI-D).
  bool admit(const txn::ShardReport& report, CommitteeHealth& health);
  /// Alg. 1 line 1: starts SE once more than N_min reports are live and
  /// their Σ s_i exceeds Ĉ.
  void try_bootstrap();
  /// Removes an admitted committee's live report (a failure or a strike)
  /// and marks `health` evicted.
  void evict(std::uint32_t committee_id, CommitteeHealth& health);
  /// One verification failure or equivocation: increments the strike count,
  /// quarantines, evicts a live report, bans past the strike budget.
  void strike(std::uint32_t committee_id, CommitteeHealth& health);
  /// True iff banning one more committee leaves the unbanned membership at
  /// N_max or above — the line below which bans start costing usable
  /// members (and, continued, manufacture the next epoch's infeasibility).
  [[nodiscard]] bool ban_preserves_liveness() const noexcept;
  /// decide()'s pure ladder walk; the public wrapper records the outcome.
  [[nodiscard]] SupervisedDecision run_ladder() const;
  /// Best utility the ladder can certify right now (0 when infeasible).
  [[nodiscard]] double best_ladder_utility() const;
  void schedule_probe(std::uint32_t committee_id, double delay_seconds);
  void probe(std::uint32_t committee_id);
  [[nodiscard]] double now_seconds() const;
  /// Re-evaluates the risk-adaptive N_min after any state change that moved
  /// the risk score or the live report set. The boost is clamped so a
  /// feasible selection still exists at the raised N_min and bootstrap stays
  /// reachable; applied resizes are recorded with Theorem-2 accounting.
  void update_risk_policy();

  SupervisorConfig config_;
  std::uint64_t seed_;  // SE's seed
  common::Rng rng_;  // models probe loss under Network::loss_probability
  std::size_t base_n_min_ = 0;     // the static N_min the boost raises from
  std::size_t n_min_ = 0;
  std::size_t n_max_count_ = 0;
  bool listening_ = true;
  std::vector<txn::ShardReport> reports_;  // one per admitted committee
  std::uint64_t total_txs_ = 0;            // Σ tx_count over reports_
  std::optional<SeScheduler> se_;          // engaged from bootstrap on
  std::uint64_t strikes_total_ = 0;
  double risk_carry_ = 0.0;        // adopted (decayed) prior-epoch risk
  std::vector<ResizeRecord> resizes_;
  std::map<std::uint32_t, CommitteeHealth> health_;
  std::map<std::uint32_t, txn::ShardReport> last_verified_;
  std::vector<FailureRecord> failures_;
  std::uint64_t failures_detected_ = 0;
  std::uint64_t recoveries_detected_ = 0;

  sim::Simulator* simulator_ = nullptr;  // non-owning; set by attach_monitor
  net::Network* network_ = nullptr;
  net::NodeId observer_ = 0;
  std::map<std::uint32_t, net::NodeId> node_of_;

  obs::ObsContext obs_;
  // Cached instruments, indexed by the enum values they label.
  std::array<obs::Counter*, 6> obs_admission_{};  // per Admission outcome
  std::array<obs::Counter*, 4> obs_tier_{};       // by DecisionTier value
  obs::Counter* obs_strikes_ = nullptr;
  obs::Counter* obs_resizes_ = nullptr;
  obs::Counter* obs_failures_ = nullptr;
  obs::Counter* obs_recoveries_ = nullptr;
  obs::Counter* obs_probe_ok_ = nullptr;
  obs::Counter* obs_probe_missed_ = nullptr;
  obs::LogHistogram* obs_ping_rtt_ = nullptr;
  obs::Counter* obs_reports_accepted_ = nullptr;
  obs::Counter* obs_reports_refused_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_rejoins_ = nullptr;
};

}  // namespace mvcom::core
