// Fig. 13 — distribution of the converged utilities over repeated runs with
// a fixed set of arrived committees, varying α ∈ {1.5, 5, 10}, |I| = 50,
// Γ = 25, Ĉ = 50K. We print the CDF of converged utilities per algorithm.
// Expected shape: the SE distribution sits to the right of the baselines'
// for every α.

#include <cstdio>
#include <vector>

#include "baselines/dynamic_programming.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

void print_cdf(const std::string& label, const std::vector<double>& sample) {
  const auto cdf = mvcom::common::cdf_at_quantiles(sample, 5);
  std::printf("  %-6s", label.c_str());
  for (const auto& point : cdf) {
    std::printf("  p%02.0f=%.0f", 100.0 * point.cumulative_probability,
                point.value);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const auto trace = mvcom::bench::paper_trace();
  constexpr std::uint64_t kRuns = 12;

  for (const double alpha : {1.5, 5.0, 10.0}) {
    const auto instance = mvcom::bench::paper_instance(
        trace, /*epoch_seed=*/13, /*num_committees=*/50, /*capacity=*/50'000,
        alpha, /*n_min=*/0);

    mvcom::bench::print_header(
        "Fig. 13 (alpha=" + std::to_string(alpha) + ")",
        "converged-utility distribution over repeated runs");

    std::vector<double> se_utilities;
    std::vector<double> sa_utilities;
    std::vector<double> woa_utilities;
    for (std::uint64_t run = 1; run <= kRuns; ++run) {
      mvcom::core::SeParams params;
      params.threads = 25;
      params.max_iterations = 1500;
      mvcom::core::SeScheduler se(instance, params, run * 31);
      se_utilities.push_back(se.run().utility);

      mvcom::baselines::SimulatedAnnealing sa({}, run * 37);
      sa_utilities.push_back(sa.solve(instance).utility);

      mvcom::baselines::WhaleOptimization woa(run * 41);
      woa_utilities.push_back(woa.solve(instance).utility);
    }
    // DP is deterministic: a point mass.
    mvcom::baselines::DynamicProgramming dp;
    const double dp_utility = dp.solve(instance).utility;

    print_cdf("SE", se_utilities);
    print_cdf("SA", sa_utilities);
    print_cdf("WOA", woa_utilities);
    mvcom::bench::print_row("DP (deterministic point mass)", dp_utility);
  }
  std::printf("\n  (expected shape: the SE distribution dominates the "
              "baselines' at every alpha)\n");
  return 0;
}
