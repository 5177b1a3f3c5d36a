#pragma once
// Online dynamics harness: drives an SeScheduler iteration-by-iteration
// while injecting committee join/leave (failure/recovery) events at chosen
// iterations — the setup behind Fig. 9 (leave & rejoin; consecutive joins)
// and Fig. 14 (online execution with consecutive joining). The cross-epoch
// carry of refused shards (Fig. 3) lives in pipeline::EpochPipeline.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"
#include "mvcom/se_scheduler.hpp"

namespace mvcom::core {

/// Membership churn intensity, in expected events per epoch. The Fig. 14
/// baseline is the paper's online-execution regime at |I| = 50: committees
/// keep joining throughout the epoch while leaves stay rare.
struct ChurnRates {
  double joins_per_epoch = 0.0;
  double leaves_per_epoch = 0.0;
};
inline constexpr ChurnRates kFig14BaselineChurn{23.0, 2.0};

/// One epoch's sampled churn: Poisson event counts with uniform arrival
/// times over [0, horizon). Join/leave interleaving is by time.
struct ChurnSchedule {
  struct Arrival {
    bool join = true;  // false = leave
    double at_seconds = 0.0;
  };
  std::vector<Arrival> arrivals;  // sorted by at_seconds
  std::size_t joins = 0;
  std::size_t leaves = 0;
};

/// Samples a churn schedule: counts ~ Poisson(rate·multiplier), times
/// uniform over [0, horizon_seconds), sorted by time (ties keep joins
/// before leaves). Pure function of the rng state — the churn-storm
/// adversary drives it with Rng::stream(seed, epoch) for replayability.
[[nodiscard]] ChurnSchedule sample_churn_schedule(const ChurnRates& rates,
                                                  double multiplier,
                                                  double horizon_seconds,
                                                  common::Rng& rng);

/// A scheduled membership event.
struct DynamicEvent {
  enum class Kind { kJoin, kLeave };
  std::size_t at_iteration = 0;
  Kind kind = Kind::kJoin;
  Committee committee{};  // for kLeave only `committee.id` is consulted
};

/// Trace of an online run: best feasible utility after every iteration,
/// with event markers.
struct DynamicTrace {
  std::vector<double> utility;           // one entry per iteration (NaN = none)
  std::vector<std::size_t> event_iterations;
  Selection final_selection;
  double final_utility = 0.0;
};

/// Runs `scheduler` for `iterations`, applying `events` (sorted or not —
/// they are processed by at_iteration) just before the matching iteration.
[[nodiscard]] DynamicTrace run_with_events(SeScheduler& scheduler,
                                           std::size_t iterations,
                                           std::vector<DynamicEvent> events);

}  // namespace mvcom::core
