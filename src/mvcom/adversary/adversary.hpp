#pragma once
// Strategic adversaries over the FaultPlan chaos harness. Where
// FaultPlan::randomized draws victims blindly, an Adversary *observes the
// run* — the SE scheduler's realized picks, the admitted claims, the ban
// list — and aims its next epoch's faults at what it saw:
//
//  * targeted-corruption — corrupt the highest-utility committees the
//    scheduler actually picked last epoch (the Blockguard threat model: the
//    adversary follows the value). Corrupted committees turn Byzantine and
//    file forged, verification-passing inflated submissions; forgeries that
//    pre-empt the honest report are undetectable, later ones are caught as
//    equivocations.
//  * colluding-misreport — a coalition coordinates verification-PASSING
//    inflated submissions (kForgeSubmission): each member commits to
//    fabricated entries, so the Merkle check holds and the forged s_i wins
//    the knapsack, crowding honest shards out of the selection.
//  * adaptive-dos — loss bursts and straggler storms concentrated on the
//    scheduler's last-epoch picks (degrade what is known to be valuable).
//  * churn-storm — join/leave churn at a multiple of the Fig. 14 baseline
//    rates, driven through dynamics::sample_churn_schedule.
//
// Determinism contract: every strategy is a pure function of (seed,
// epoch_index, observed history). All randomness comes from
// Rng::stream(seed', epoch_index) substreams, so replaying a campaign —
// or any single epoch of it — reproduces the exact fault plans and,
// through the deterministic harness, bit-identical obs event streams.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/dynamics.hpp"
#include "mvcom/fault_injection.hpp"

namespace mvcom::core {

enum class AdversaryStrategy {
  kTargetedCorruption,
  kColludingMisreport,
  kAdaptiveDos,
  kChurnStorm,
};
inline constexpr std::array<AdversaryStrategy, 4> kAllAdversaryStrategies = {
    AdversaryStrategy::kTargetedCorruption,
    AdversaryStrategy::kColludingMisreport,
    AdversaryStrategy::kAdaptiveDos,
    AdversaryStrategy::kChurnStorm,
};
[[nodiscard]] const char* to_string(AdversaryStrategy strategy) noexcept;
/// Parses the CLI spelling ("targeted-corruption", ...); nullopt on unknown.
[[nodiscard]] std::optional<AdversaryStrategy> parse_adversary_strategy(
    std::string_view name) noexcept;

struct AdversaryConfig {
  AdversaryStrategy strategy = AdversaryStrategy::kTargetedCorruption;
  /// Attack budget in [0, 1] — the fraction of the membership the adversary
  /// may strike per epoch (targeted / DoS / coalition size), and the scale
  /// on the churn-storm's churn rates (a multiple of Fig. 14's, fixed in
  /// adversary.cpp). 0 means no attack: every strategy plans no event. A
  /// positive budget strikes at least one committee, also where
  /// budget · membership rounds to 0. The degradation-curve bench sweeps
  /// this axis.
  double budget = 0.25;
  /// Forged-claim multiplier for colluding-misreport submissions; finite
  /// and >= 1. The Adversary constructor rejects either knob out of range.
  double inflation = 3.0;
};

/// What the adversary observed from the previous epoch's run. Absent at
/// epoch 0, where strategies fall back to the honest claims they can see
/// before any scheduling happened.
struct EpochObservation {
  std::vector<std::uint32_t> permitted_ids;     // realized SE picks
  std::vector<txn::ShardReport> final_reports;  // admitted claims at the DDL
  std::vector<std::uint32_t> banned_ids;        // no point striking these
  double utility = 0.0;
};

class Adversary {
 public:
  Adversary(AdversaryConfig config, std::uint64_t seed);

  /// Plans epoch `epoch_index`'s fault schedule against `committees` (the
  /// epoch's honest membership) with `reserve_size` join slots available.
  /// Pure per (seed, epoch_index, last): no state is kept between calls.
  [[nodiscard]] FaultPlan plan_epoch(
      std::size_t epoch_index, const std::vector<ChaosCommittee>& committees,
      std::size_t reserve_size,
      const std::optional<EpochObservation>& last) const;

  [[nodiscard]] const AdversaryConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Victim ids ranked most-valuable-first: last epoch's permitted ids by
  /// admitted s_i when an observation exists, else the honest claims.
  [[nodiscard]] std::vector<std::uint32_t> ranked_targets(
      const std::vector<ChaosCommittee>& committees,
      const std::optional<EpochObservation>& last) const;

  AdversaryConfig config_;
  std::uint64_t seed_;
};

}  // namespace mvcom::core
