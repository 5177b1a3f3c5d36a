#include "mvcom/supervisor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::core {

namespace {

constexpr double kBoundSlack = 1e-9;  // float noise in the Theorem-2 check
/// SE iterations run opportunistically after every admission or eviction.
constexpr std::size_t kIterationsPerEvent = 50;
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
    : config_(config), seed_(seed), rng_(seed ^ 0x5eb0a9d5u) {
  const OnlineSchedulerConfig& c = config_.scheduler;
  if (c.capacity == 0) {
    throw std::invalid_argument("EpochSupervisor: capacity > 0");
  }
  if (c.expected_committees == 0) {
    throw std::invalid_argument("EpochSupervisor: expected_committees > 0");
  }
  if (!(c.n_min_fraction >= 0.0 && c.n_min_fraction <= 1.0 &&
        c.n_max_fraction > 0.0 && c.n_max_fraction <= 1.0)) {
    throw std::invalid_argument("EpochSupervisor: fractions in [0,1]");
  }
  const auto expected = static_cast<double>(c.expected_committees);
  // Eq. (3) demands Σ x_i ≥ N_min with N_min a fraction of |I|; a selection
  // cannot include half a committee, so the fractional target rounds UP:
  // N_min = ⌈fraction·|I|⌉. (Truncating instead would let e.g. 0.5 of 5
  // expected committees pass with only 2 permitted — below the 50% floor the
  // paper's §VI-A parameterization intends.)
  n_min_ = static_cast<std::size_t>(std::ceil(c.n_min_fraction * expected));
  n_max_count_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(c.n_max_fraction * expected)));
  // Bootstrap (Alg. 1 line 1) requires strictly more than N_min arrivals,
  // and listening stops for good once N_max arrive (line 29) — so N_min must
  // fall strictly below the N_max cutoff or try_bootstrap is unreachable
  // (e.g. n_min_fraction = 1.0 could otherwise never start exploring).
  if (n_min_ >= n_max_count_) {
    throw std::invalid_argument(
        "EpochSupervisor: ceil(n_min_fraction*expected) must be < the N_max "
        "listening cutoff, or bootstrap can never trigger");
  }
  base_n_min_ = n_min_;
  if (config_.risk.enabled && !(config_.risk.escalation_step > 0.0)) {
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
  obs_reports_accepted_ = nullptr;
  obs_reports_refused_ = nullptr;
  obs_evictions_ = nullptr;
  obs_rejoins_ = nullptr;
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
        "Sampled heartbeat round-trip times (answered probes only)");
    obs_reports_accepted_ =
        &m->counter("mvcom_online_reports_total",
                    "Shard reports handled by the online scheduler",
                    {{"result", "accepted"}});
    obs_reports_refused_ =
        &m->counter("mvcom_online_reports_total",
                    "Shard reports handled by the online scheduler",
                    {{"result", "refused"}});
    obs_evictions_ = &m->counter("mvcom_online_failures_total",
                                 "Committee failures applied (leave events)");
    obs_rejoins_ = &m->counter("mvcom_online_recoveries_total",
                               "Committee recoveries re-admitted");
  }
  if (se_) se_->set_obs(obs_);
}

Admission EpochSupervisor::on_submission(
    const sharding::ShardSubmission& submission, double formation_latency,
    double consensus_latency) {
  const Admission a =
      admit_submission(submission, formation_latency, consensus_latency);
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

  const bool was_evicted = h.quarantined || h.failed || h.evicted;
  if (!admit(report, h)) return Admission::kRefused;

  h.quarantined = false;
  h.failed = false;
  h.missed_pings = 0;
  h.verified_txs = verified_txs;
  last_verified_[submission.committee_id] = report;
  // A new live report can unlock a previously clamped N_min boost.
  update_risk_policy();
  return was_evicted ? Admission::kReadmitted : Admission::kAdmitted;
}

bool EpochSupervisor::admit(const txn::ShardReport& report,
                            CommitteeHealth& health) {
  // A report whose s_i would wrap the 64-bit Σ s bookkeeping is refused
  // (EpochInstance construction rejects such sets outright; an adversarial
  // committee must not be able to crash the listening loop).
  if ((!listening_ && !health.evicted) ||
      report.tx_count >
          std::numeric_limits<std::uint64_t>::max() - total_txs_) {
    if (obs_reports_refused_ != nullptr) obs_reports_refused_->inc();
    return false;
  }
  reports_.push_back(report);
  total_txs_ += report.tx_count;
  if (obs_reports_accepted_ != nullptr) obs_reports_accepted_->inc();
  if (se_) {
    se_->add_committee(
        {report.committee_id, report.tx_count, report.two_phase_latency()});
  } else {
    try_bootstrap();
  }
  explore(kIterationsPerEvent);
  // Alg. 1 line 29: stop listening once N_max of the members arrived.
  if (reports_.size() >= n_max_count_) listening_ = false;
  if (health.evicted && obs_rejoins_ != nullptr) obs_rejoins_->inc();
  health.admitted = true;
  health.evicted = false;
  return true;
}

void EpochSupervisor::try_bootstrap() {
  if (reports_.size() <= n_min_) return;
  if (total_txs_ <= config_.scheduler.capacity) return;  // capacity slack
  se_.emplace(EpochInstance::from_reports(reports_, config_.scheduler.alpha,
                                          config_.scheduler.capacity, n_min_),
              config_.scheduler.se, seed_);
  se_->set_obs(obs_);
  if (auto* t = obs_.trace()) {
    t->instant("epoch", "epoch/bootstrap",
               {{"committees", static_cast<double>(reports_.size())},
                {"total_txs", static_cast<double>(total_txs_)}});
  }
}

void EpochSupervisor::evict(std::uint32_t committee_id,
                            CommitteeHealth& health) {
  const auto it = std::find_if(
      reports_.begin(), reports_.end(), [&](const txn::ShardReport& r) {
        return r.committee_id == committee_id;
      });
  assert(it != reports_.end());  // admitted ⇔ live
  total_txs_ -= it->tx_count;
  reports_.erase(it);
  health.admitted = false;
  health.evicted = true;
  if (obs_evictions_ != nullptr) obs_evictions_->inc();
  if (se_) {
    if (reports_.empty()) {
      se_.reset();  // nothing left to schedule over
    } else {
      se_->remove_committee(committee_id);
      explore(kIterationsPerEvent);
    }
  }
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
  // Its previously admitted report can no longer be trusted either.
  if (health.admitted) evict(committee_id, health);
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

  evict(committee_id, h);

  // Theorem 2 at runtime: the stationary-utility perturbation caused by the
  // trim is bounded by max_{g∈G} U_g. The ladder's best answer on the
  // trimmed set certifies a lower bound on max_G U_g; the observed dip must
  // stay within the bound built from it.
  record.utility_after = best_ladder_utility();
  record.perturbation_bound = record.utility_after;  // Theorem 2: max_G U_g
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
  // Only an evicted report rejoins: a committee that never went live has
  // nothing to re-admit.
  if (!h.evicted || !admit(last_verified_.at(committee_id), h)) return false;
  update_risk_policy();
  return true;
}

double EpochSupervisor::risk_score() const noexcept {
  return risk_carry_ +
         kStrikeWeight * static_cast<double>(strikes_total_) +
         kFailureWeight * static_cast<double>(failures_detected_);
}

bool EpochSupervisor::ban_preserves_liveness() const noexcept {
  // Risk-adaptive supervisors only (the static path keeps the paper's
  // unconditional ban on budget exhaustion).
  // Bans are free while the unbanned membership still reaches N_max:
  // listening stops at N_max reports, so excluding a member
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
  return unbanned > n_max_count_;
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
  // Clamp 1 — bootstrap reachability: SE only starts exploring once
  // strictly more than N_min reports arrived, and arrivals stop at N_max; a
  // boost that pushed N_min to N_max would wedge it.
  while (boost > 0 && base_n_min_ + boost >= n_max_count_) --boost;
  // Clamp 2 — feasibility: never raise N_min past what the live reports can
  // satisfy (Eq. (3)+(4)). The defense must not manufacture an infeasible
  // epoch that the static supervisor would have solved.
  while (boost > 0 && !n_min_witness(reports_, config_.scheduler.capacity,
                                     base_n_min_ + boost)) {
    --boost;
  }
  const std::size_t target = base_n_min_ + boost;
  const std::size_t before = n_min_;
  if (target == before) return;
  assert(target < n_max_count_);  // clamp 1

  ResizeRecord record;
  record.sim_time_seconds = now_seconds();
  record.n_min_before = before;
  record.n_min_after = target;
  record.risk_score = risk;
  record.utility_before = best_ladder_utility();
  n_min_ = target;
  if (se_) se_->set_n_min(target);  // SE rebinds, keeping its family
  record.utility_after = best_ladder_utility();
  // Theorem 2 extended to adaptive resizing: changing N_min swaps the
  // feasible space for a subset/superset; the stationary-optimum shift is
  // bounded by the best utility certified on the larger space.
  record.perturbation_bound =
      std::max(record.utility_before, record.utility_after);
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
  if (se_) se_->advance(iterations);
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
  // The ladder walk is pure; record the winning rung on the way out.
  SupervisedDecision out = run_ladder();
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

  if (reports_.empty()) {
    out.reason = InfeasibleReason::kNoLiveCommittees;
    return out;
  }
  const EpochInstance instance = EpochInstance::from_reports(
      reports_, config_.scheduler.alpha, config_.scheduler.capacity, n_min_);

  // SE best: the converged stochastic-exploration answer.
  const Selection se_selection = aligned_se_selection();
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
  if (const auto witness = n_min_witness(reports_, instance.capacity(),
                                         instance.n_min())) {
    fill_decision(out, instance, *witness, DecisionTier::kGreedyScratch);
    return out;
  }

  // Genuinely infeasible; say why.
  out.tier = DecisionTier::kInfeasible;
  out.reason = reports_.size() < n_min_
                   ? InfeasibleReason::kNminUnreachable
                   : InfeasibleReason::kCapacityInsufficient;
  return out;
}

Selection EpochSupervisor::aligned_se_selection() const {
  if (!se_) return {};
  Selection best = se_->current_selection();
  // SE's instance matches reports_ (admit and evict keep them in lock-step);
  // guard regardless. A size-only comparison cannot see id misalignment —
  // after interleaved failures and rejoins the two sets could hold the same
  // COUNT of committees in different order or membership, and selection
  // bits would silently apply to the wrong committees. Compare ids
  // element-wise.
  const auto& committees = se_->instance().committees();
  if (best.size() != reports_.size() || committees.size() != reports_.size()) {
    return {};
  }
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    if (committees[i].id != reports_[i].committee_id) return {};
  }
  return best;
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
