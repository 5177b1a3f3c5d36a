#pragma once
// OnlineCommitteeScheduler — the deployment wrapper of Alg. 1, exactly the
// interaction loop of Fig. 5/6: the final committee feeds committee reports
// to the algorithm as they arrive; the algorithm bootstraps once scheduling
// becomes worthwhile (line 1: enough committees AND the capacity binds),
// keeps exploring between events, handles failures (leaves) detected by
// ping timeouts, and stops listening once N_max of the expected member
// committees have arrived (line 29).
//
// Usage per epoch:
//   OnlineCommitteeScheduler scheduler(config, seed);
//   for each arriving report r:   scheduler.on_report(r);
//   on failure of committee id:   scheduler.on_failure(id);
//   anytime:                      scheduler.explore(k);   // k SE iterations
//   at the DDL:                   auto decision = scheduler.decide();

#include <cstdint>
#include <optional>
#include <vector>

#include "mvcom/problem.hpp"
#include "mvcom/se_scheduler.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

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

/// The final decision for an epoch.
struct SchedulingDecision {
  bool feasible = false;
  std::vector<std::uint32_t> permitted_ids;  // committee ids to include
  double utility = 0.0;
  double valuable_degree = 0.0;
  std::uint64_t permitted_txs = 0;
};

class OnlineCommitteeScheduler {
 public:
  OnlineCommitteeScheduler(OnlineSchedulerConfig config, std::uint64_t seed);

  /// A member committee submitted its shard. Returns false when the report
  /// was refused because listening already stopped (N_max reached) or the
  /// committee id was already seen.
  bool on_report(const txn::ShardReport& report);

  /// A committee was detected failed (ping → ∞, §V-A). No-op for ids not
  /// currently tracked.
  void on_failure(std::uint32_t committee_id);

  /// A failed committee recovered and re-submitted. Only ids that previously
  /// went through on_failure may re-enter this way — the recovery door must
  /// not double as a late-join loophole after listening stopped at N_max.
  bool on_recovery(const txn::ShardReport& report);

  /// Runs `iterations` SE iterations if the algorithm has bootstrapped.
  void explore(std::size_t iterations);

  /// Alg. 1 line 1: has exploration started?
  [[nodiscard]] bool bootstrapped() const noexcept {
    return scheduler_.has_value();
  }
  /// Alg. 1 line 29: has the scheduler stopped accepting new reports?
  [[nodiscard]] bool listening() const noexcept { return listening_; }
  [[nodiscard]] std::size_t arrived() const noexcept {
    return reports_.size();
  }
  [[nodiscard]] std::size_t n_min() const noexcept { return n_min_; }
  /// The N_max listening cutoff (arrivals stop once this many reports are
  /// in). Exposed so supervision layers can keep adaptive N_min below it.
  [[nodiscard]] std::size_t n_max_count() const noexcept {
    return n_max_count_;
  }

  /// Risk-adaptive resizing (supervision policy, not in the paper): replaces
  /// the Eq.-(3) floor N_min for all subsequent decisions. Returns false —
  /// leaving everything unchanged — when the new value would make bootstrap
  /// unreachable (n_min >= the N_max cutoff). A bootstrapped SE scheduler is
  /// rebuilt onto the resized instance, carrying its solution family over.
  bool set_n_min(std::size_t n_min);

  /// The live (non-failed) reports currently backing decisions.
  [[nodiscard]] const std::vector<txn::ShardReport>& reports() const noexcept {
    return reports_;
  }
  /// Running Σ tx_count over the live reports (kept incrementally — the
  /// admission loop must not rescan all reports per arrival).
  [[nodiscard]] std::uint64_t total_reported_txs() const noexcept {
    return total_txs_;
  }
  /// The SE scheduler's current best selection, index-aligned with
  /// reports() — what supervision layers repair when it is infeasible.
  /// Empty before bootstrap, when SE holds no feasible selection, or when
  /// the scheduler's committees do not match the live reports id for id.
  [[nodiscard]] Selection aligned_se_selection() const;

  /// Produces the current best selection (the epoch's final answer).
  [[nodiscard]] SchedulingDecision decide() const;

  /// Attaches observability; propagated into the SE scheduler (including
  /// one created by a later bootstrap).
  void set_obs(obs::ObsContext obs);

 private:
  void try_bootstrap();
  [[nodiscard]] EpochInstance build_instance() const;

  OnlineSchedulerConfig config_;
  std::uint64_t seed_;
  std::size_t n_min_ = 0;
  std::size_t n_max_count_ = 0;
  bool listening_ = true;
  std::vector<txn::ShardReport> reports_;  // live (non-failed) committees
  std::uint64_t total_txs_ = 0;            // Σ tx_count over reports_ (cached)
  std::vector<std::uint32_t> failed_ids_;  // ids eligible for on_recovery
  std::optional<SeScheduler> scheduler_;

  obs::ObsContext obs_;
  obs::Counter* obs_reports_accepted_ = nullptr;
  obs::Counter* obs_reports_refused_ = nullptr;
  obs::Counter* obs_failures_ = nullptr;
  obs::Counter* obs_recoveries_ = nullptr;
};

}  // namespace mvcom::core
