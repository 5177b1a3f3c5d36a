// Fig. 14 — online execution with consecutive committee-joining events,
// varying α ∈ {1.5, 5, 10}, with |I| = 50, Γ = 25, Ĉ = 40K and 23 joining
// events in the epoch (paper §VI-G). N_min = 50%·|I| (online case, §VI-A).
// SE handles the joins online; the baselines are (re)solved on the final
// arrived set. Expected shape: SE converges 20–30% above the baselines and
// utilities grow with α.

#include <algorithm>
#include <cstdio>

#include "baselines/dynamic_programming.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "bench_util.hpp"
#include "mvcom/dynamics.hpp"
#include "mvcom/se_scheduler.hpp"

int main() {
  const auto trace = mvcom::bench::paper_trace();

  for (const double alpha : {1.5, 5.0, 10.0}) {
    const auto final_instance = mvcom::bench::paper_instance(
        trace, /*epoch_seed=*/14, /*num_committees=*/50, /*capacity=*/40'000,
        alpha, /*n_min=*/25);

    mvcom::bench::print_header(
        "Fig. 14 (alpha=" + std::to_string(alpha) + ")",
        "online run with 23 joining events, |I|=50, Gamma=25, C=40K");

    // The 27 fastest committees have arrived; 23 join consecutively in
    // latency order (online arrivals are ordered by completion time).
    std::vector<mvcom::core::Committee> arrival_order =
        final_instance.committees();
    std::sort(arrival_order.begin(), arrival_order.end(),
              [](const mvcom::core::Committee& a,
                 const mvcom::core::Committee& b) {
                return a.latency < b.latency;
              });
    std::vector<mvcom::core::Committee> initial(arrival_order.begin(),
                                                arrival_order.begin() + 27);
    // N_min tracks 50% of the arrived count; start at 13.
    mvcom::core::EpochInstance start(initial, alpha, 40'000, /*n_min=*/13);

    mvcom::core::SeParams params;
    params.threads = 25;
    mvcom::core::SeScheduler scheduler(start, params, 5);
    std::vector<mvcom::core::DynamicEvent> events;
    for (std::size_t j = 27; j < 50; ++j) {
      events.push_back({150 + (j - 27) * 60,
                        mvcom::core::DynamicEvent::Kind::kJoin,
                        arrival_order[j]});
    }
    const auto dyn = mvcom::core::run_with_events(scheduler, 2600, events);
    mvcom::bench::print_trace("SE (online)", dyn.utility, 14);

    mvcom::baselines::SimulatedAnnealing sa({}, 15);
    const auto sa_result = sa.solve(final_instance);
    mvcom::baselines::DynamicProgramming dp;
    const auto dp_result = dp.solve(final_instance);
    mvcom::baselines::WhaleOptimization woa(15);
    const auto woa_result = woa.solve(final_instance);

    mvcom::bench::print_row("SE  converged (online)", dyn.final_utility);
    mvcom::bench::print_row("SA  converged", sa_result.utility);
    mvcom::bench::print_row("DP  (one-shot)", dp_result.utility);
    mvcom::bench::print_row("WOA converged", woa_result.utility);
    const double best_baseline =
        std::max({sa_result.utility, dp_result.utility, woa_result.utility});
    if (best_baseline > 0.0) {
      mvcom::bench::print_row(
          "SE advantage over best baseline (%)",
          100.0 * (dyn.final_utility - best_baseline) / best_baseline);
    }
  }
  std::printf("\n  (expected shape: SE tops the baselines despite handling "
              "the joins online; utilities grow with alpha)\n");
  return 0;
}
