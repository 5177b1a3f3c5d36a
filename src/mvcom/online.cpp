#include "mvcom/online.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::core {

namespace {

/// SE iterations run opportunistically after every accepted event.
constexpr std::size_t kIterationsPerEvent = 50;

}  // namespace

OnlineCommitteeScheduler::OnlineCommitteeScheduler(
    OnlineSchedulerConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("OnlineCommitteeScheduler: capacity > 0");
  }
  if (config_.expected_committees == 0) {
    throw std::invalid_argument(
        "OnlineCommitteeScheduler: expected_committees > 0");
  }
  if (config_.n_min_fraction < 0.0 || config_.n_min_fraction > 1.0 ||
      config_.n_max_fraction <= 0.0 || config_.n_max_fraction > 1.0) {
    throw std::invalid_argument(
        "OnlineCommitteeScheduler: fractions in [0,1]");
  }
  const auto expected = static_cast<double>(config_.expected_committees);
  // Eq. (3) demands Σ x_i ≥ N_min with N_min a fraction of |I|; a selection
  // cannot include half a committee, so the fractional target rounds UP:
  // N_min = ⌈fraction·|I|⌉. (Truncating instead would let e.g. 0.5 of 5
  // expected committees pass with only 2 permitted — below the 50% floor the
  // paper's §VI-A parameterization intends.)
  n_min_ = static_cast<std::size_t>(std::ceil(config_.n_min_fraction * expected));
  n_max_count_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(config_.n_max_fraction * expected)));
  // Bootstrap (Alg. 1 line 1) requires strictly more than N_min arrivals,
  // and listening stops for good once N_max arrive (line 29) — so N_min must
  // fall strictly below the N_max cutoff or try_bootstrap is unreachable
  // (e.g. n_min_fraction = 1.0 could otherwise never start exploring).
  if (n_min_ >= n_max_count_) {
    throw std::invalid_argument(
        "OnlineCommitteeScheduler: ceil(n_min_fraction*expected) must be < "
        "the N_max listening cutoff, or bootstrap can never trigger");
  }
}

EpochInstance OnlineCommitteeScheduler::build_instance() const {
  return EpochInstance::from_reports(reports_, config_.alpha,
                                     config_.capacity, n_min_);
}

void OnlineCommitteeScheduler::try_bootstrap() {
  if (scheduler_) return;
  if (reports_.size() <= n_min_) return;
  if (total_txs_ <= config_.capacity) return;  // capacity slack: nothing yet
  // Alg. 1 line 1 satisfied: start exploring.
  scheduler_.emplace(build_instance(), config_.se, seed_);
  scheduler_->set_obs(obs_);
  if (auto* t = obs_.trace()) {
    t->instant("epoch", "epoch/bootstrap",
               {{"committees", static_cast<double>(reports_.size())},
                {"total_txs", static_cast<double>(total_txs_)}});
  }
}

void OnlineCommitteeScheduler::set_obs(obs::ObsContext obs) {
  obs_ = obs;
  obs_reports_accepted_ = nullptr;
  obs_reports_refused_ = nullptr;
  obs_failures_ = nullptr;
  obs_recoveries_ = nullptr;
  if (obs::MetricsRegistry* m = obs_.metrics()) {
    obs_reports_accepted_ =
        &m->counter("mvcom_online_reports_total",
                    "Shard reports handled by the online scheduler",
                    {{"result", "accepted"}});
    obs_reports_refused_ =
        &m->counter("mvcom_online_reports_total",
                    "Shard reports handled by the online scheduler",
                    {{"result", "refused"}});
    obs_failures_ = &m->counter("mvcom_online_failures_total",
                                "Committee failures applied (leave events)");
    obs_recoveries_ = &m->counter("mvcom_online_recoveries_total",
                                  "Committee recoveries re-admitted");
  }
  if (scheduler_) scheduler_->set_obs(obs_);
}

bool OnlineCommitteeScheduler::on_report(const txn::ShardReport& report) {
  const auto refused = [this] {
    if (obs_reports_refused_ != nullptr) obs_reports_refused_->inc();
    return false;
  };
  if (!listening_) return refused();
  const auto duplicate = std::any_of(
      reports_.begin(), reports_.end(), [&](const txn::ShardReport& r) {
        return r.committee_id == report.committee_id;
      });
  if (duplicate) return refused();
  // Refuse a report whose claimed shard size would wrap the 64-bit Σ s
  // bookkeeping (EpochInstance construction rejects such sets outright; an
  // adversarial committee must not be able to crash the listening loop).
  // total_txs_ is maintained incrementally across report/failure/recovery,
  // so admission is O(|I|) per arrival instead of O(|I|²) overall.
  if (report.tx_count >
      std::numeric_limits<std::uint64_t>::max() - total_txs_) {
    return refused();
  }
  reports_.push_back(report);
  total_txs_ += report.tx_count;
  if (obs_reports_accepted_ != nullptr) obs_reports_accepted_->inc();
  if (scheduler_) {
    scheduler_->add_committee(
        {report.committee_id, report.tx_count, report.two_phase_latency()});
    explore(kIterationsPerEvent);
  } else {
    try_bootstrap();
    if (scheduler_) explore(kIterationsPerEvent);
  }
  // Alg. 1 line 29: stop listening once N_max of the members arrived.
  if (reports_.size() >= n_max_count_) listening_ = false;
  return true;
}

void OnlineCommitteeScheduler::on_failure(std::uint32_t committee_id) {
  const auto it = std::find_if(
      reports_.begin(), reports_.end(), [&](const txn::ShardReport& r) {
        return r.committee_id == committee_id;
      });
  if (it == reports_.end()) return;
  total_txs_ -= it->tx_count;
  reports_.erase(it);
  if (obs_failures_ != nullptr) obs_failures_->inc();
  if (std::find(failed_ids_.begin(), failed_ids_.end(), committee_id) ==
      failed_ids_.end()) {
    failed_ids_.push_back(committee_id);
  }
  if (scheduler_) {
    if (reports_.empty()) {
      scheduler_.reset();  // nothing left to schedule over
    } else {
      scheduler_->remove_committee(committee_id);
      explore(kIterationsPerEvent);
    }
  }
}

bool OnlineCommitteeScheduler::on_recovery(const txn::ShardReport& report) {
  // A recovery is a (re-)join; it may arrive even after listening stopped —
  // the committee was already counted among the arrived (§VI-D, Fig. 9(a)).
  // Only ids that actually failed qualify: otherwise the recovery door would
  // admit brand-new committees past the N_max cutoff (and an equivocating
  // live committee could "recover" with a different s_i on top of its
  // standing report — the duplicate check below refuses that too).
  const auto failed_it =
      std::find(failed_ids_.begin(), failed_ids_.end(), report.committee_id);
  if (failed_it == failed_ids_.end()) return false;
  const bool was_listening = listening_;
  listening_ = true;
  const bool accepted = on_report(report);
  listening_ = was_listening && listening_;
  if (accepted) {
    failed_ids_.erase(failed_it);
    if (obs_recoveries_ != nullptr) obs_recoveries_->inc();
  }
  return accepted;
}

bool OnlineCommitteeScheduler::set_n_min(std::size_t n_min) {
  if (n_min == n_min_) return true;
  // Same invariant the constructor enforces: bootstrap needs strictly more
  // than N_min arrivals before listening stops at N_max.
  if (n_min >= n_max_count_) return false;
  n_min_ = n_min;
  if (scheduler_) scheduler_->set_n_min(n_min);
  return true;
}

void OnlineCommitteeScheduler::explore(std::size_t iterations) {
  if (!scheduler_) return;
  // The online scheduler lends SE no pool, so its Γ explorers step serially
  // on the calling thread; advance() still honors the §IV-D share points.
  scheduler_->advance(iterations);
}

Selection OnlineCommitteeScheduler::aligned_se_selection() const {
  if (!scheduler_) return {};
  Selection best = scheduler_->current_selection();
  // The scheduler's internal instance matches reports_ (kept in lock-step
  // by on_report/on_failure/on_recovery); guard regardless. A size-only
  // comparison cannot see id misalignment — after interleaved failures and
  // recoveries the two sets could in principle hold the same COUNT of
  // committees in different order or membership, and selection bits would
  // silently apply to the wrong committees. Compare ids element-wise.
  const auto& committees = scheduler_->instance().committees();
  if (best.size() != reports_.size() || committees.size() != reports_.size()) {
    return {};
  }
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    if (committees[i].id != reports_[i].committee_id) return {};
  }
  return best;
}

SchedulingDecision OnlineCommitteeScheduler::decide() const {
  SchedulingDecision decision;
  if (reports_.empty()) return decision;

  const EpochInstance instance = build_instance();
  Selection best = aligned_se_selection();
  if (best.empty()) {
    // Not bootstrapped (capacity slack): permit everything if feasible.
    Selection everyone(instance.size(), 1);
    if (instance.feasible(everyone)) best = std::move(everyone);
  }
  if (best.empty() || !instance.feasible(best)) return decision;

  decision.feasible = true;
  decision.utility = instance.utility(best);
  decision.valuable_degree = instance.valuable_degree(best);
  decision.permitted_txs = instance.permitted_txs(best);
  for (std::size_t i = 0; i < best.size(); ++i) {
    if (best[i]) {
      decision.permitted_ids.push_back(instance.committees()[i].id);
    }
  }
  return decision;
}

}  // namespace mvcom::core
