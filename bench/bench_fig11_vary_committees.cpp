// Fig. 11 — convergence of the four algorithms with a fixed set of arrived
// committees, varying |I| ∈ {500, 800, 1000}, with α = 1.5, Γ = 10 and
// Ĉ = 1000 · |I|. Expected shape: SE converges 20–30% above the baselines,
// and the gap widens as |I| grows.

#include <algorithm>
#include <cstdio>

#include "baselines/dynamic_programming.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "bench_util.hpp"
#include "mvcom/se_scheduler.hpp"

int main() {
  const auto trace = mvcom::bench::paper_trace();

  for (const std::size_t committees : {500u, 800u, 1000u}) {
    const auto instance = mvcom::bench::paper_instance(
        trace, /*epoch_seed=*/committees, committees,
        /*capacity=*/1000 * committees, /*alpha=*/1.5, /*n_min=*/0);

    mvcom::bench::print_header(
        "Fig. 11 (|I|=" + std::to_string(committees) + ")",
        "algorithm convergence, a=1.5, Gamma=10, C=1000*|I|");

    mvcom::core::SeParams params;
    params.threads = 10;
    params.max_iterations = 9000;
    params.share_interval = 50;
    params.convergence_window = params.max_iterations;
    mvcom::core::SeScheduler se(instance, params, committees);
    const auto se_result = se.run();
    mvcom::bench::print_trace("SE", se_result.utility_trace, 10);

    mvcom::baselines::SaParams sa_params;
    sa_params.iterations = 20000;
    mvcom::baselines::SimulatedAnnealing sa(sa_params, committees);
    const auto sa_result = sa.solve(instance);
    mvcom::bench::print_trace("SA", sa_result.utility_trace, 10);

    mvcom::baselines::DynamicProgramming dp;
    const auto dp_result = dp.solve(instance);

    mvcom::baselines::WhaleOptimization woa(committees);
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
  std::printf("\n  (expected shape: SE on top at every |I|; advantage does "
              "not shrink as |I| grows)\n");
  return 0;
}
