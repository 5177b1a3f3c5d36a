#include "mvcom/adversary/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace mvcom::core {

namespace {

/// Salt separating the adversary's substream family from the workload's and
/// the harness's (all three key off the same campaign seed).
constexpr std::uint64_t kAdversarySalt = 0xadd5e6a11ULL;

/// Churn-storm intensity at budget = 1.0, in multiples of the Fig. 14
/// baseline rates (the "10× Fig. 14" regime).
constexpr double kChurnMultiplier = 10.0;

/// Victims per epoch: budget 0 strikes none; a positive budget strikes at
/// least one, even where budget · membership rounds to 0.
std::size_t budget_victims(double budget, std::size_t membership) {
  if (membership == 0 || budget == 0.0) return 0;
  const double raw = std::round(budget * static_cast<double>(membership));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 0.0)),
                                 1, membership);
}

}  // namespace

const char* to_string(AdversaryStrategy strategy) noexcept {
  switch (strategy) {
    case AdversaryStrategy::kTargetedCorruption: return "targeted-corruption";
    case AdversaryStrategy::kColludingMisreport: return "colluding-misreport";
    case AdversaryStrategy::kAdaptiveDos: return "adaptive-dos";
    case AdversaryStrategy::kChurnStorm: return "churn-storm";
  }
  return "unknown";
}

std::optional<AdversaryStrategy> parse_adversary_strategy(
    std::string_view name) noexcept {
  for (const AdversaryStrategy s : kAllAdversaryStrategies) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

Adversary::Adversary(AdversaryConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  if (!(config_.budget >= 0.0 && config_.budget <= 1.0)) {
    throw std::invalid_argument("Adversary: budget must be in [0, 1]");
  }
  if (!(config_.inflation >= 1.0 && std::isfinite(config_.inflation))) {
    throw std::invalid_argument("Adversary: inflation must be finite and >= 1");
  }
}

std::vector<std::uint32_t> Adversary::ranked_targets(
    const std::vector<ChaosCommittee>& committees,
    const std::optional<EpochObservation>& last) const {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_value;  // (txs, id)
  if (last && !last->permitted_ids.empty()) {
    // The realized picks, weighted by the s_i the scheduler admitted —
    // exactly what the adversary watched win. Banned ids are dead targets.
    std::map<std::uint32_t, std::uint64_t> claimed;
    for (const txn::ShardReport& r : last->final_reports) {
      claimed[r.committee_id] = r.tx_count;
    }
    for (const std::uint32_t id : last->permitted_ids) {
      if (std::find(last->banned_ids.begin(), last->banned_ids.end(), id) !=
          last->banned_ids.end()) {
        continue;
      }
      const auto it = claimed.find(id);
      by_value.emplace_back(it != claimed.end() ? it->second : 0, id);
    }
  }
  if (by_value.empty()) {
    // Epoch 0 (or everything banned): the honest claims are all there is.
    for (const ChaosCommittee& c : committees) {
      by_value.emplace_back(c.submission.claimed_tx_count,
                            c.submission.committee_id);
    }
  }
  std::sort(by_value.begin(), by_value.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  std::vector<std::uint32_t> ids;
  ids.reserve(by_value.size());
  for (const auto& [txs, id] : by_value) ids.push_back(id);
  return ids;
}

FaultPlan Adversary::plan_epoch(
    std::size_t epoch_index, const std::vector<ChaosCommittee>& committees,
    std::size_t reserve_size,
    const std::optional<EpochObservation>& last) const {
  common::Rng rng =
      common::Rng::stream(seed_ ^ kAdversarySalt, epoch_index);
  FaultPlan plan;
  const double horizon = kFaultHorizonSeconds;
  const std::vector<std::uint32_t> targets = ranked_targets(committees, last);
  const std::size_t k = budget_victims(config_.budget, committees.size());

  switch (config_.strategy) {
    case AdversaryStrategy::kTargetedCorruption: {
      // Corrupt the k most valuable realized picks: each victim turns
      // Byzantine and files a forged, verification-passing submission with
      // an inflated s_i (kForgeSubmission). Corruption times straddle the
      // victims' two-phase latencies, so some forgeries silently REPLACE
      // the honest report (undetectable — they then crowd honest shards out
      // of the capacity knapsack) while the rest land after it and are
      // struck as equivocations — the detectable fraction that feeds the
      // defender's risk score.
      for (std::size_t v = 0; v < k && v < targets.size(); ++v) {
        FaultEvent e;
        e.kind = FaultKind::kForgeSubmission;
        e.victim = FaultEvent::Victim::kById;
        e.committee_id = targets[v];
        e.at_seconds = rng.uniform(0.3, 0.9) * horizon;
        e.magnitude = config_.inflation;
        plan.events.push_back(e);
      }
      break;
    }
    case AdversaryStrategy::kColludingMisreport: {
      // The coalition: committees the scheduler did NOT pick last epoch
      // (the ones with something to gain), largest honest claim first so
      // the inflated forgeries dominate the knapsack. Every member files a
      // kForgeSubmission before its honest report would have gone out — the
      // commitment is over the fabricated entries, so verification passes
      // and only a later differing submission could expose it.
      std::vector<std::uint32_t> losers;
      for (const ChaosCommittee& c : committees) {
        const std::uint32_t id = c.submission.committee_id;
        const bool picked =
            last && std::find(last->permitted_ids.begin(),
                              last->permitted_ids.end(),
                              id) != last->permitted_ids.end();
        if (!picked) losers.push_back(id);
      }
      std::map<std::uint32_t, std::uint64_t> honest;
      for (const ChaosCommittee& c : committees) {
        honest[c.submission.committee_id] = c.submission.claimed_tx_count;
      }
      std::sort(losers.begin(), losers.end(),
                [&honest](std::uint32_t a, std::uint32_t b) {
                  return honest[a] != honest[b] ? honest[a] > honest[b]
                                                : a < b;
                });
      // Pad from the ranked targets when too few stayed unpicked.
      for (const std::uint32_t id : targets) {
        if (losers.size() >= k) break;
        if (std::find(losers.begin(), losers.end(), id) == losers.end()) {
          losers.push_back(id);
        }
      }
      for (std::size_t v = 0; v < k && v < losers.size(); ++v) {
        FaultEvent e;
        e.kind = FaultKind::kForgeSubmission;
        e.victim = FaultEvent::Victim::kById;
        e.committee_id = losers[v];
        e.at_seconds = rng.uniform(0.0, 0.04) * horizon;
        e.magnitude = config_.inflation;
        plan.events.push_back(e);
      }
      break;
    }
    case AdversaryStrategy::kAdaptiveDos: {
      // Straggler storms on the picks, plus budget-scaled network-wide loss
      // bursts: degrade what is known to be valuable without leaving the
      // permanent signature a crash would.
      for (std::size_t v = 0; v < k && v < targets.size(); ++v) {
        FaultEvent e;
        e.kind = FaultKind::kStragglerDelay;
        e.victim = FaultEvent::Victim::kById;
        e.committee_id = targets[v];
        e.at_seconds = rng.uniform(0.0, 0.3) * horizon;
        e.duration_seconds = 0.3 * horizon;
        e.magnitude = rng.uniform(3.0, 8.0);
        plan.events.push_back(e);
      }
      const std::size_t bursts = static_cast<std::size_t>(
          std::ceil(config_.budget * 4.0));
      for (std::size_t b = 0; b < bursts; ++b) {
        FaultEvent e;
        e.kind = FaultKind::kMessageLossBurst;
        e.at_seconds = rng.uniform(0.2, 0.8) * horizon;
        e.duration_seconds = 0.15 * horizon;
        e.magnitude = rng.uniform(0.4, 0.7);
        plan.events.push_back(e);
      }
      break;
    }
    case AdversaryStrategy::kChurnStorm: {
      // Membership churn at kChurnMultiplier × Fig. 14, scaled by budget.
      const ChurnSchedule schedule = sample_churn_schedule(
          kFig14BaselineChurn, kChurnMultiplier * config_.budget, horizon, rng);
      std::uint32_t next_slot = 0;
      for (const ChurnSchedule::Arrival& a : schedule.arrivals) {
        FaultEvent e;
        e.at_seconds = a.at_seconds;
        if (a.join) {
          if (next_slot >= reserve_size) continue;  // reserve exhausted
          e.kind = FaultKind::kJoin;
          e.committee_id = next_slot++;
        } else {
          e.kind = FaultKind::kLeave;
          e.victim = FaultEvent::Victim::kByLiveRank;
          e.committee_id = static_cast<std::uint32_t>(
              rng.below(std::max<std::size_t>(1, committees.size())));
        }
        plan.events.push_back(e);
      }
      break;
    }
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
  return plan;
}

}  // namespace mvcom::core
