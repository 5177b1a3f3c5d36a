// Fig. 12 — convergence of the four algorithms with a fixed set of arrived
// committees, varying α ∈ {1.5, 5, 10}, with |I| = 50, Γ = 25, Ĉ = 50K.
// Expected shape: converged utilities grow with α for every algorithm; the
// SE-vs-baseline gap widens as α increases.

#include <algorithm>
#include <cstdio>

#include "baselines/dynamic_programming.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "bench_util.hpp"
#include "mvcom/se_scheduler.hpp"

int main() {
  const auto trace = mvcom::bench::paper_trace();

  for (const double alpha : {1.5, 5.0, 10.0}) {
    const auto instance = mvcom::bench::paper_instance(
        trace, /*epoch_seed=*/11, /*num_committees=*/50, /*capacity=*/50'000,
        alpha, /*n_min=*/0);

    mvcom::bench::print_header(
        "Fig. 12 (alpha=" + std::to_string(alpha) + ")",
        "algorithm convergence, |I|=50, Gamma=25, C=50K");

    mvcom::core::SeParams params;
    params.threads = 25;
    params.max_iterations = 4000;
    params.convergence_window = params.max_iterations;
    mvcom::core::SeScheduler se(instance, params, 21);
    const auto se_result = se.run();
    mvcom::bench::print_trace("SE", se_result.utility_trace, 10);

    mvcom::baselines::SimulatedAnnealing sa({}, 21);
    const auto sa_result = sa.solve(instance);
    mvcom::bench::print_trace("SA", sa_result.utility_trace, 10);

    mvcom::baselines::DynamicProgramming dp;
    const auto dp_result = dp.solve(instance);

    mvcom::baselines::WhaleOptimization woa(21);
    const auto woa_result = woa.solve(instance);
    mvcom::bench::print_trace("WOA", woa_result.utility_trace, 10);

    mvcom::bench::print_row("SE  converged", se_result.utility);
    mvcom::bench::print_row("SA  converged", sa_result.utility);
    mvcom::bench::print_row("DP  (one-shot)", dp_result.utility);
    mvcom::bench::print_row("WOA converged", woa_result.utility);
    const double best_baseline =
        std::max({sa_result.utility, dp_result.utility, woa_result.utility});
    mvcom::bench::print_row(
        "SE advantage over best baseline (%)",
        100.0 * (se_result.utility - best_baseline) / best_baseline);
  }
  std::printf("\n  (expected shape: all utilities grow with alpha; SE stays "
              "on top)\n");
  return 0;
}
