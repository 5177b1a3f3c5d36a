#include "mvcom/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/theory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::core {

namespace {

constexpr double kBoundSlack = 1e-9;  // float noise in the Theorem-2 check
constexpr double kStrikeWeight = 1.0;   // risk per strike
constexpr double kFailureWeight = 0.5;  // risk per detector-declared failure
/// Cross-epoch decay applied to the risk score when exporting carry.
constexpr double kCarryDecay = 0.5;
/// Strikes (failed verifications / equivocations) before a permanent
/// epoch-scoped ban.
constexpr int kMaxStrikes = 3;
/// Risk per −1 effective strike budget under an enabled risk policy.
constexpr double kTightenStep = 4.0;
/// Heartbeat monitor (§V-A ping failure detector): a healthy committee is
/// probed this often; a probe whose RTT exceeds the timeout is missed, and
/// K consecutive misses declare the committee failed.
constexpr double kPingIntervalSeconds = 30.0;
constexpr double kPingTimeoutSeconds = 12.0;
constexpr int kMissedPingsBeforeFailure = 3;  // K
/// While a committee is down its probe interval grows by this factor per
/// missed probe, up to the cap.
constexpr double kPingBackoffFactor = 2.0;
/// Longest probe interval the backoff reaches while a committee is down.
constexpr double kPingIntervalCapSeconds = 480.0;

/// Fills the decision fields from a selection already known feasible.
void fill_decision(SupervisedDecision& out, const EpochInstance& instance,
                   const Selection& selection, DecisionTier tier) {
  out.tier = tier;
  out.reason = InfeasibleReason::kNone;
  out.decision.feasible = true;
  out.decision.utility = instance.utility(selection);
  out.decision.valuable_degree = instance.valuable_degree(selection);
  out.decision.permitted_txs = instance.permitted_txs(selection);
  out.decision.permitted_ids.clear();
  for (std::size_t i = 0; i < selection.size(); ++i) {
    if (selection[i]) {
      out.decision.permitted_ids.push_back(instance.committees()[i].id);
    }
  }
}

}  // namespace

const char* to_string(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kReadmitted: return "readmitted";
    case Admission::kQuarantined: return "quarantined";
    case Admission::kBanned: return "banned";
    case Admission::kDuplicate: return "duplicate";
    case Admission::kRefused: return "refused";
  }
  return "unknown";
}

const char* to_string(DecisionTier tier) noexcept {
  switch (tier) {
    case DecisionTier::kSeBest: return "se-best";
    case DecisionTier::kGreedyScratch: return "greedy-scratch";
    case DecisionTier::kInfeasible: return "infeasible";
  }
  return "unknown";
}

const char* to_string(InfeasibleReason reason) noexcept {
  switch (reason) {
    case InfeasibleReason::kNone: return "none";
    case InfeasibleReason::kNoLiveCommittees: return "no live committees";
    case InfeasibleReason::kNminUnreachable: return "N_min unreachable";
    case InfeasibleReason::kCapacityInsufficient:
      return "capacity insufficient for N_min";
  }
  return "unknown";
}

EpochSupervisor::EpochSupervisor(SupervisorConfig config, std::uint64_t seed)
    : config_(config),
      scheduler_(config.scheduler, seed),
      rng_(seed ^ 0x5eb0a9d5u),
      base_n_min_(scheduler_.n_min()) {
  if (config_.risk.enabled && config_.risk.escalation_step <= 0.0) {
    throw std::invalid_argument("EpochSupervisor: bad risk-policy parameters");
  }
}

void EpochSupervisor::set_obs(obs::ObsContext obs) {
  obs_ = obs;
  obs_admission_.fill(nullptr);
  obs_tier_.fill(nullptr);
  obs_strikes_ = nullptr;
  obs_resizes_ = nullptr;
  obs_failures_ = nullptr;
  obs_recoveries_ = nullptr;
  obs_probe_ok_ = nullptr;
  obs_probe_missed_ = nullptr;
  obs_ping_rtt_ = nullptr;
  if (obs::MetricsRegistry* m = obs_.metrics()) {
    constexpr std::array<Admission, 6> kAdmissions = {
        Admission::kAdmitted,  Admission::kReadmitted,
        Admission::kQuarantined, Admission::kBanned,
        Admission::kDuplicate, Admission::kRefused};
    for (const Admission a : kAdmissions) {
      obs_admission_[static_cast<std::size_t>(a)] =
          &m->counter("mvcom_supervisor_submissions_total",
                      "Shard submissions by verified-admission outcome",
                      {{"outcome", to_string(a)}});
    }
    constexpr std::array<DecisionTier, 3> kTiers = {
        DecisionTier::kSeBest, DecisionTier::kGreedyScratch,
        DecisionTier::kInfeasible};
    for (const DecisionTier t : kTiers) {
      obs_tier_[static_cast<std::size_t>(t)] =
          &m->counter("mvcom_supervisor_decisions_total",
                      "Degradation-ladder decisions by winning tier",
                      {{"tier", to_string(t)}});
    }
    obs_strikes_ = &m->counter("mvcom_supervisor_strikes_total",
                               "Verification failures and equivocations");
    obs_resizes_ = &m->counter("mvcom_supervisor_resizes_total",
                               "Risk-adaptive N_min resizes applied");
    obs_failures_ = &m->counter("mvcom_supervisor_failures_total",
                                "Committee failures declared");
    obs_recoveries_ = &m->counter("mvcom_supervisor_recoveries_total",
                                  "Committee recoveries declared");
    obs_probe_ok_ = &m->counter("mvcom_supervisor_probes_total",
                                "Heartbeat probes by outcome",
                                {{"result", "ok"}});
    obs_probe_missed_ = &m->counter("mvcom_supervisor_probes_total",
                                    "Heartbeat probes by outcome",
                                    {{"result", "missed"}});
    obs_ping_rtt_ = &m->histogram(
        "mvcom_supervisor_ping_rtt_seconds",
        "Sampled heartbeat round-trip times (answered probes only)", {},
        {.lowest = 1e-3, .growth = 2.0, .count = 18});
  }
  scheduler_.set_obs(obs_);
}

Admission EpochSupervisor::on_submission(
    const sharding::ShardSubmission& submission, double formation_latency,
    double consensus_latency) {
  const auto admitted = [this, &submission](Admission a) {
    if (obs::Counter* c = obs_admission_[static_cast<std::size_t>(a)]) {
      c->inc();
    }
    if (auto* t = obs_.trace()) {
      t->instant("admission", to_string(a),
                 {{"committee_id", static_cast<double>(submission.committee_id)},
                  {"claimed_txs",
                   static_cast<double>(submission.claimed_tx_count)}});
    }
    return a;
  };
  return admitted(admit_submission(submission, formation_latency,
                                   consensus_latency));
}

Admission EpochSupervisor::admit_submission(
    const sharding::ShardSubmission& submission, double formation_latency,
    double consensus_latency) {
  CommitteeHealth& h = health_[submission.committee_id];
  if (h.banned) return Admission::kBanned;

  if (sharding::verify_submission(submission)) {
    // The claimed s_i or root disagrees with the count-binding commitment —
    // the claim must never reach the instance.
    strike(submission.committee_id, h);
    return h.banned ? Admission::kBanned : Admission::kQuarantined;
  }

  // Verified: the entries total equals the claim, so the claim is now the
  // trusted s_i.
  const std::uint64_t verified_txs = submission.claimed_tx_count;
  txn::ShardReport report;
  report.committee_id = submission.committee_id;
  report.tx_count = verified_txs;
  report.formation_latency = formation_latency;
  report.consensus_latency = consensus_latency;

  if (h.admitted) {
    if (verified_txs == h.verified_txs) return Admission::kDuplicate;
    // Equivocation: two verified submissions binding different s_i. Both
    // commitments are internally consistent, so one of them lies about the
    // actual shard — evict and strike.
    strike(submission.committee_id, h);
    return h.banned ? Admission::kBanned : Admission::kQuarantined;
  }

  const bool was_evicted = h.quarantined || h.failed ||
                           evicted_from_scheduler_[submission.committee_id];
  const bool accepted = evicted_from_scheduler_[submission.committee_id]
                            ? scheduler_.on_recovery(report)
                            : scheduler_.on_report(report);
  if (!accepted) return Admission::kRefused;

  evicted_from_scheduler_[submission.committee_id] = false;
  h.admitted = true;
  h.quarantined = false;
  h.failed = false;
  h.missed_pings = 0;
  h.verified_txs = verified_txs;
  last_verified_[submission.committee_id] = report;
  // A new live report can unlock a previously clamped N_min boost.
  update_risk_policy();
  return was_evicted ? Admission::kReadmitted : Admission::kAdmitted;
}

void EpochSupervisor::strike(std::uint32_t committee_id,
                             CommitteeHealth& health) {
  ++health.strikes;
  ++strikes_total_;
  health.quarantined = true;
  if (health.strikes >= effective_max_strikes() &&
      (!config_.risk.enabled || ban_preserves_liveness())) {
    health.banned = true;
  }
  if (obs_strikes_ != nullptr) obs_strikes_->inc();
  if (auto* t = obs_.trace()) {
    t->instant("supervisor", "supervisor/strike",
               {{"committee_id", static_cast<double>(committee_id)},
                {"strikes", static_cast<double>(health.strikes)},
                {"banned", health.banned ? 1.0 : 0.0}});
  }
  if (health.admitted) {
    // Its previously admitted report can no longer be trusted either.
    scheduler_.on_failure(committee_id);
    evicted_from_scheduler_[committee_id] = true;
    health.admitted = false;
  }
  update_risk_policy();
}

void EpochSupervisor::on_failure(std::uint32_t committee_id) {
  CommitteeHealth& h = health_[committee_id];
  if (h.failed) return;
  h.failed = true;
  ++failures_detected_;
  if (!h.admitted) return;  // nothing contributed to the instance yet

  FailureRecord record;
  record.committee_id = committee_id;
  record.sim_time_seconds = now_seconds();
  record.utility_before = best_ladder_utility();

  scheduler_.on_failure(committee_id);
  evicted_from_scheduler_[committee_id] = true;
  h.admitted = false;

  // Theorem 2 at runtime: the stationary-utility perturbation caused by the
  // trim is bounded by max_{g∈G} U_g. The ladder's best answer on the
  // trimmed set certifies a lower bound on max_G U_g; the observed dip must
  // stay within the bound built from it.
  record.utility_after = best_ladder_utility();
  record.perturbation_bound =
      analysis::failure_perturbation_bound(record.utility_after);
  record.within_bound =
      std::abs(record.utility_before - record.utility_after) <=
      record.perturbation_bound + kBoundSlack;
  if (obs_failures_ != nullptr) obs_failures_->inc();
  if (auto* t = obs_.trace()) {
    t->instant("supervisor", "supervisor/failure",
               {{"committee_id", static_cast<double>(committee_id)},
                {"utility_before", record.utility_before},
                {"utility_after", record.utility_after},
                {"perturbation_bound", record.perturbation_bound}});
  }
  failures_.push_back(record);
  update_risk_policy();
}

bool EpochSupervisor::on_recovery(std::uint32_t committee_id) {
  const auto it = health_.find(committee_id);
  if (it == health_.end() || !it->second.failed) return false;
  CommitteeHealth& h = it->second;
  h.failed = false;
  h.missed_pings = 0;
  ++recoveries_detected_;
  if (obs_recoveries_ != nullptr) obs_recoveries_->inc();
  if (auto* t = obs_.trace()) {
    t->instant("supervisor", "supervisor/recovery",
               {{"committee_id", static_cast<double>(committee_id)}});
  }
  if (h.banned || h.quarantined) return false;  // alive, but not trusted
  const auto report_it = last_verified_.find(committee_id);
  if (report_it == last_verified_.end()) return false;  // never submitted
  if (!evicted_from_scheduler_[committee_id]) return false;
  const bool accepted = scheduler_.on_recovery(report_it->second);
  if (accepted) {
    evicted_from_scheduler_[committee_id] = false;
    h.admitted = true;
    update_risk_policy();
  }
  return accepted;
}

double EpochSupervisor::risk_score() const noexcept {
  return risk_carry_ +
         kStrikeWeight * static_cast<double>(strikes_total_) +
         kFailureWeight * static_cast<double>(failures_detected_);
}

bool EpochSupervisor::ban_preserves_liveness() const noexcept {
  // Risk-adaptive supervisors only (the static path keeps the paper's
  // unconditional ban on budget exhaustion).
  // Bans are free while the unbanned membership still reaches N_max: the
  // scheduler stops listening at N_max reports, so excluding a member
  // beyond that line costs no throughput this epoch or the next. Below the
  // line every ban shrinks the usable membership toward infeasibility —
  // an attacker spreading offenses across the membership would be trading
  // cheap forgeries for a permanent liveness collapse. So past it, repeat
  // offenders stay quarantined (still evicted, still struck) instead.
  std::size_t unbanned = 0;
  for (const auto& [id, h] : health_) {
    (void)id;
    if (!h.banned) ++unbanned;
  }
  return unbanned > scheduler_.n_max_count();
}

int EpochSupervisor::effective_max_strikes() const noexcept {
  if (!config_.risk.enabled) return kMaxStrikes;
  const int tightened =
      kMaxStrikes - static_cast<int>(risk_score() / kTightenStep);
  // Floor 2, never 1: banning first offenses under high carried risk lets a
  // broad attack convert the whole membership into bans within an epoch or
  // two (a liveness collapse the attacker would happily trade forgeries
  // for). Repeat offenders still escalate monotonically to a ban.
  return std::max(2, tightened);
}

void EpochSupervisor::update_risk_policy() {
  if (!config_.risk.enabled) return;
  const double risk = risk_score();
  std::size_t boost = std::min<std::size_t>(
      config_.risk.boost_cap,
      static_cast<std::size_t>(risk / config_.risk.escalation_step));
  // Clamp 1 — bootstrap reachability: the online scheduler only starts
  // exploring once strictly more than N_min reports arrived, and arrivals
  // stop at N_max; a boost that pushed N_min to N_max would wedge it.
  const std::size_t n_max = scheduler_.n_max_count();
  while (boost > 0 && base_n_min_ + boost >= n_max) --boost;
  // Clamp 2 — feasibility: never raise N_min past what the live reports can
  // satisfy (Eq. (3)+(4)). The defense must not manufacture an infeasible
  // epoch that the static supervisor would have solved.
  while (boost > 0 && !n_min_witness(scheduler_.reports(),
                                     config_.scheduler.capacity,
                                     base_n_min_ + boost)) {
    --boost;
  }
  const std::size_t target = base_n_min_ + boost;
  const std::size_t before = scheduler_.n_min();
  if (target == before) return;

  ResizeRecord record;
  record.sim_time_seconds = now_seconds();
  record.n_min_before = before;
  record.n_min_after = target;
  record.risk_score = risk;
  record.utility_before = best_ladder_utility();
  if (!scheduler_.set_n_min(target)) return;  // refused; nothing changed
  record.utility_after = best_ladder_utility();
  // Theorem 2 extended to adaptive resizing: changing N_min swaps the
  // feasible space for a subset/superset; the stationary-optimum shift is
  // bounded by the best utility certified on the larger space.
  record.perturbation_bound = analysis::failure_perturbation_bound(
      std::max(record.utility_before, record.utility_after));
  record.within_bound =
      std::abs(record.utility_before - record.utility_after) <=
      record.perturbation_bound + kBoundSlack;
  resizes_.push_back(record);
  if (obs_resizes_ != nullptr) obs_resizes_->inc();
  if (auto* t = obs_.trace()) {
    t->instant("supervisor", "supervisor/resize",
               {{"n_min_before", static_cast<double>(record.n_min_before)},
                {"n_min_after", static_cast<double>(record.n_min_after)},
                {"risk", record.risk_score},
                {"utility_after", record.utility_after}});
  }
}

void EpochSupervisor::adopt_carry(const SupervisorCarry& carry) {
  risk_carry_ += carry.risk;
  for (const SupervisorCarry::Entry& entry : carry.entries) {
    CommitteeHealth& h = health_[entry.committee_id];
    h.strikes = std::max(h.strikes, entry.strikes);
    // Bans are monotone across epochs: once banned, never re-admitted.
    // Carried strikes alone never ban at adoption — the membership is not
    // known yet, so the liveness guard cannot be evaluated; a repeat
    // offender with an exhausted budget is banned by strike() the moment it
    // offends again (strikes already ≥ the budget at that point).
    h.banned = h.banned || entry.banned;
  }
  update_risk_policy();
}

SupervisorCarry EpochSupervisor::export_carry() const {
  SupervisorCarry carry;
  for (const auto& [id, h] : health_) {  // std::map: ascending id
    if (h.strikes > 0 || h.banned) {
      carry.entries.push_back({id, h.strikes, h.banned});
    }
  }
  carry.risk = kCarryDecay * risk_score();
  return carry;
}

void EpochSupervisor::explore(std::size_t iterations) {
  scheduler_.explore(iterations);
}

void EpochSupervisor::attach_monitor(sim::Simulator& simulator,
                                     net::Network& network,
                                     net::NodeId observer) {
  simulator_ = &simulator;
  network_ = &network;
  observer_ = observer;
  for (const auto& [id, node] : node_of_) {
    (void)node;
    CommitteeHealth& h = health_[id];
    if (h.ping_interval_seconds <= 0.0) {
      h.ping_interval_seconds = kPingIntervalSeconds;
    }
    schedule_probe(id, h.ping_interval_seconds);
  }
}

void EpochSupervisor::register_committee_node(std::uint32_t committee_id,
                                              net::NodeId node) {
  const bool known = node_of_.count(committee_id) != 0;
  node_of_[committee_id] = node;
  CommitteeHealth& h = health_[committee_id];
  if (h.ping_interval_seconds <= 0.0) {
    h.ping_interval_seconds = kPingIntervalSeconds;
  }
  if (simulator_ != nullptr && !known) {
    schedule_probe(committee_id, h.ping_interval_seconds);
  }
}

void EpochSupervisor::schedule_probe(std::uint32_t committee_id,
                                     double delay_seconds) {
  simulator_->schedule_after(common::SimTime(delay_seconds),
                             [this, committee_id] { probe(committee_id); });
}

void EpochSupervisor::probe(std::uint32_t committee_id) {
  const net::NodeId node = node_of_.at(committee_id);
  CommitteeHealth& h = health_[committee_id];
  // A probe is a real message exchange: it can be lost outright (burst
  // loss), answered late (straggler slowdown inflates the sampled RTT), or
  // never answered (failed node → infinite RTT).
  const common::SimTime rtt = network_->ping_rtt(observer_, node);
  const bool lost = rng_.bernoulli(network_->loss_probability());
  const bool missed = lost || rtt.is_infinite() ||
                      rtt.seconds() > kPingTimeoutSeconds;
  if (missed) {
    if (obs_probe_missed_ != nullptr) obs_probe_missed_->inc();
    if (auto* t = obs_.trace()) {
      t->instant("hb", "hb/probe_missed",
                 {{"committee_id", static_cast<double>(committee_id)},
                  {"missed_pings", static_cast<double>(h.missed_pings + 1)},
                  {"lost", lost ? 1.0 : 0.0}});
    }
  } else {
    if (obs_probe_ok_ != nullptr) obs_probe_ok_->inc();
    if (obs_ping_rtt_ != nullptr) obs_ping_rtt_->observe(rtt.seconds());
  }
  if (missed) {
    ++h.missed_pings;
    if (!h.failed && h.missed_pings >= kMissedPingsBeforeFailure) {
      on_failure(committee_id);
    }
    if (h.failed) {
      // Down: keep checking, but back off exponentially (§V-A timeouts).
      h.ping_interval_seconds =
          std::min(h.ping_interval_seconds * kPingBackoffFactor,
                   kPingIntervalCapSeconds);
    }
  } else {
    h.missed_pings = 0;
    h.ping_interval_seconds = kPingIntervalSeconds;
    if (h.failed) on_recovery(committee_id);
  }
  schedule_probe(committee_id, h.ping_interval_seconds);
}

double EpochSupervisor::now_seconds() const {
  return simulator_ != nullptr ? simulator_->now().seconds() : 0.0;
}

double EpochSupervisor::best_ladder_utility() const {
  // run_ladder, not decide: the Theorem-2 bookkeeping probes the ladder
  // internally and must not show up as user-visible decision events.
  const SupervisedDecision d = run_ladder();
  return d.decision.feasible ? d.decision.utility : 0.0;
}

SupervisedDecision EpochSupervisor::decide() const {
  // The ladder walk below is pure; record the winning rung on the way out.
  const auto recorded = [this](SupervisedDecision out) {
    if (obs::Counter* c = obs_tier_[static_cast<std::size_t>(out.tier)]) {
      c->inc();
    }
    if (auto* t = obs_.trace()) {
      t->instant("ladder", to_string(out.tier),
                 {{"tier", static_cast<double>(out.tier)},
                  {"feasible", out.decision.feasible ? 1.0 : 0.0},
                  {"utility", out.decision.utility},
                  {"permitted",
                   static_cast<double>(out.decision.permitted_ids.size())}});
    }
    return out;
  };
  return recorded(run_ladder());
}

SupervisedDecision EpochSupervisor::run_ladder() const {
  SupervisedDecision out;
  for (const FailureRecord& record : failures_) {
    out.perturbation_bound =
        std::max(out.perturbation_bound, record.perturbation_bound);
    out.theorem2_respected = out.theorem2_respected && record.within_bound;
  }
  for (const ResizeRecord& record : resizes_) {
    out.perturbation_bound =
        std::max(out.perturbation_bound, record.perturbation_bound);
    out.theorem2_respected = out.theorem2_respected && record.within_bound;
  }

  const std::vector<txn::ShardReport>& reports = scheduler_.reports();
  if (reports.empty()) {
    out.reason = InfeasibleReason::kNoLiveCommittees;
    return out;
  }
  const EpochInstance instance = EpochInstance::from_reports(
      reports, config_.scheduler.alpha, config_.scheduler.capacity,
      scheduler_.n_min());

  // SE best: the converged stochastic-exploration answer.
  const Selection se_selection = scheduler_.aligned_se_selection();
  if (!se_selection.empty() && instance.feasible(se_selection)) {
    fill_decision(out, instance, se_selection, DecisionTier::kSeBest);
    return out;
  }

  // Greedy from scratch over the live set (core::greedy). When the density
  // greedy itself cannot reach feasibility, fall back to the minimal
  // witness (the N_min smallest shards): it is feasible whenever anything
  // is, so this tier only falls through when the instance is genuinely
  // infeasible. At N_min = 0 the greedy never fails: it only adds shards
  // that fit Ĉ, so it returns a feasible, possibly empty, selection.
  if (const Selection greedy_selection = greedy(instance);
      !greedy_selection.empty()) {
    fill_decision(out, instance, greedy_selection,
                  DecisionTier::kGreedyScratch);
    return out;
  }
  if (const auto witness = n_min_witness(reports, instance.capacity(),
                                         instance.n_min())) {
    fill_decision(out, instance, *witness, DecisionTier::kGreedyScratch);
    return out;
  }

  // Genuinely infeasible; say why.
  out.tier = DecisionTier::kInfeasible;
  out.reason = reports.size() < scheduler_.n_min()
                   ? InfeasibleReason::kNminUnreachable
                   : InfeasibleReason::kCapacityInsufficient;
  return out;
}

std::optional<CommitteeHealth> EpochSupervisor::health(
    std::uint32_t committee_id) const {
  const auto it = health_.find(committee_id);
  if (it == health_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint32_t> EpochSupervisor::quarantined_ids() const {
  std::vector<std::uint32_t> ids;
  for (const auto& [id, h] : health_) {
    if (h.quarantined && !h.banned) ids.push_back(id);
  }
  return ids;
}

std::vector<std::uint32_t> EpochSupervisor::banned_ids() const {
  std::vector<std::uint32_t> ids;
  for (const auto& [id, h] : health_) {
    if (h.banned) ids.push_back(id);
  }
  return ids;
}

}  // namespace mvcom::core
