#pragma once
// EpochSupervisor — the fault-tolerant deployment layer around
// OnlineCommitteeScheduler. The paper's deployment story (§V, Fig. 5–7,
// Theorem 2) is about surviving committee failures, stragglers, and rational
// misreporting; the bare scheduler trusts every claimed s_i and relies on
// callers to detect failures. The supervisor adds the three missing
// robustness subsystems:
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
//       tier 1  SE best            converged/bootstrapped SE selection
//       tier 2  greedy repair      density repair of the (infeasible or
//                                  partial) SE selection
//       tier 3  greedy scratch     density greedy over the live set, with a
//                                  guaranteed minimal-feasible fill (the
//                                  N_min smallest shards) as last resort —
//                                  this tier succeeds whenever ANY feasible
//                                  selection exists (at N_min = 0 that is
//                                  always, possibly as the empty selection)
//       infeasible                 with a machine-readable reason
//     After every failure the Theorem-2 perturbation bound
//     (analysis::failure_perturbation_bound) is evaluated at runtime and
//     surfaced in the decision, so callers can check that the observed
//     utility dip respects the theory.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/online.hpp"
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
  kRefused,       // wrapped scheduler refused (listening stopped at N_max)
};
[[nodiscard]] const char* to_string(Admission admission) noexcept;

/// Which rung of the degradation ladder produced the decision.
enum class DecisionTier {
  kSeBest,
  kGreedyRepair,
  kGreedyScratch,
  kInfeasible,
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
///  * Strike-budget tightening — lower the effective max_strikes by one per
///    `tighten_step` of risk (floor 2 — a first offense never bans, else a
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
  double strike_weight = 1.0;   // risk per strike
  double escalation_step = 2.0; // risk per +1 N_min
  std::size_t boost_cap = 8;    // max N_min raise over the static base
  double tighten_step = 4.0;    // risk per −1 effective max_strikes
  /// Cross-epoch decay applied to the risk score when exporting carry.
  double carry_decay = 0.5;
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
  bool quarantined = false;   // last submission struck; awaiting honesty
  bool banned = false;        // strikes exhausted; refused for the epoch
  bool failed = false;        // declared failed (detector or caller)
  int strikes = 0;
  int missed_pings = 0;
  std::uint64_t verified_txs = 0;  // s_i of the last verified submission
  double ping_interval_seconds = 0.0;  // current (possibly backed-off)
};

struct SupervisorConfig {
  OnlineSchedulerConfig scheduler{};
  /// Strikes (failed verifications / equivocations) before a permanent
  /// epoch-scoped ban.
  int max_strikes = 3;
  /// Heartbeat monitor (§V-A ping failure detector).
  double ping_interval_seconds = 30.0;
  double ping_timeout_seconds = 12.0;
  int missed_pings_before_failure = 3;   // K
  double ping_backoff_factor = 2.0;      // while the committee is down
  /// Risk-adaptive committee sizing (disabled by default — the static
  /// supervisor behaves exactly as before).
  RiskPolicyConfig risk{};
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
  EpochSupervisor(SupervisorConfig config, std::uint64_t seed);

  /// Verified admission: checks the count-binding Merkle commitment, then
  /// feeds the *verified* s_i (never the raw claim) to the scheduler.
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

  /// Opportunistic SE exploration (delegates to the wrapped scheduler).
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

  /// Attaches observability; propagated into the wrapped online scheduler
  /// (and through it, the SE scheduler).
  void set_obs(obs::ObsContext obs);

  /// Adopts cross-epoch supervision state (call before any submission):
  /// carried strikes and bans pre-populate the health table — a committee
  /// banned last epoch is refused outright this epoch — and the carried
  /// risk score seeds the risk-adaptive policy.
  void adopt_carry(const SupervisorCarry& carry);
  /// Exports the state the next epoch's supervisor should adopt: every
  /// committee with strikes or a ban, plus the risk score decayed by
  /// RiskPolicyConfig::carry_decay.
  [[nodiscard]] SupervisorCarry export_carry() const;

  // -- Introspection -------------------------------------------------------
  [[nodiscard]] const OnlineCommitteeScheduler& scheduler() const noexcept {
    return scheduler_;
  }
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
  OnlineCommitteeScheduler scheduler_;
  common::Rng rng_;  // models probe loss under Network::loss_probability
  std::size_t base_n_min_ = 0;     // the static N_min the boost raises from
  std::uint64_t strikes_total_ = 0;
  double risk_carry_ = 0.0;        // adopted (decayed) prior-epoch risk
  std::vector<ResizeRecord> resizes_;
  std::map<std::uint32_t, CommitteeHealth> health_;
  std::map<std::uint32_t, txn::ShardReport> last_verified_;
  /// Ids whose report the wrapped scheduler saw fail (so re-admission goes
  /// through its recovery door, not the N_max-gated report door).
  std::map<std::uint32_t, bool> evicted_from_scheduler_;
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
  std::array<obs::Counter*, 4> obs_tier_{};       // per DecisionTier rung
  obs::Counter* obs_strikes_ = nullptr;
  obs::Counter* obs_resizes_ = nullptr;
  obs::Counter* obs_failures_ = nullptr;
  obs::Counter* obs_recoveries_ = nullptr;
  obs::Counter* obs_probe_ok_ = nullptr;
  obs::Counter* obs_probe_missed_ = nullptr;
  obs::LogHistogram* obs_ping_rtt_ = nullptr;
};

}  // namespace mvcom::core
