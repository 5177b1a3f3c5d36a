#include "mvcom/dynamics.hpp"

#include <algorithm>
#include <limits>

namespace mvcom::core {

ChurnSchedule sample_churn_schedule(const ChurnRates& rates,
                                    double multiplier,
                                    double horizon_seconds,
                                    common::Rng& rng) {
  ChurnSchedule schedule;
  schedule.joins =
      static_cast<std::size_t>(rng.poisson(rates.joins_per_epoch * multiplier));
  schedule.leaves = static_cast<std::size_t>(
      rng.poisson(rates.leaves_per_epoch * multiplier));
  schedule.arrivals.reserve(schedule.joins + schedule.leaves);
  for (std::size_t k = 0; k < schedule.joins; ++k) {
    schedule.arrivals.push_back({true, rng.uniform(0.0, horizon_seconds)});
  }
  for (std::size_t k = 0; k < schedule.leaves; ++k) {
    schedule.arrivals.push_back({false, rng.uniform(0.0, horizon_seconds)});
  }
  // Stable by construction order: ties keep joins before leaves.
  std::stable_sort(schedule.arrivals.begin(), schedule.arrivals.end(),
                   [](const ChurnSchedule::Arrival& a,
                      const ChurnSchedule::Arrival& b) {
                     return a.at_seconds < b.at_seconds;
                   });
  return schedule;
}

DynamicTrace run_with_events(SeScheduler& scheduler, std::size_t iterations,
                             std::vector<DynamicEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const DynamicEvent& a, const DynamicEvent& b) {
                     return a.at_iteration < b.at_iteration;
                   });
  DynamicTrace trace;
  trace.utility.reserve(iterations);
  std::size_t next_event = 0;
  for (std::size_t it = 0; it < iterations; ++it) {
    while (next_event < events.size() &&
           events[next_event].at_iteration <= it) {
      const DynamicEvent& ev = events[next_event++];
      if (ev.kind == DynamicEvent::Kind::kJoin) {
        scheduler.add_committee(ev.committee);
      } else {
        scheduler.remove_committee(ev.committee.id);
      }
      trace.event_iterations.push_back(it);
    }
    scheduler.step();
    trace.utility.push_back(scheduler.current_utility());
  }
  trace.final_selection = scheduler.current_selection();
  trace.final_utility = trace.utility.empty()
                            ? std::numeric_limits<double>::quiet_NaN()
                            : trace.utility.back();
  return trace;
}

}  // namespace mvcom::core
