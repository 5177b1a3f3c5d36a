// Fig. 10 — Valuable Degree Σ x_i s_i / Π_i of the selections produced by
// the four algorithms, |I|=500, Ĉ=500K, α=1.5, Γ=25. Expected shape:
// SE highest; SA close behind; DP and WOA markedly lower (they ignore the
// TX-per-age ratio).

#include <cstdio>

#include "baselines/dynamic_programming.hpp"
#include "common/stats.hpp"
#include "baselines/greedy.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "bench_util.hpp"
#include "mvcom/se_scheduler.hpp"

int main() {
  const auto trace = mvcom::bench::paper_trace();

  mvcom::bench::print_header(
      "Fig. 10", "Valuable Degree per algorithm (|I|=500, C=500K, a=1.5)");

  constexpr std::uint64_t kSeeds = 4;
  std::vector<double> se_vd;
  std::vector<double> sa_vd;
  std::vector<double> dp_vd;
  std::vector<double> woa_vd;
  std::vector<double> greedy_vd;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto instance = mvcom::bench::paper_instance(
        trace, seed, /*num_committees=*/500, /*capacity=*/500'000,
        /*alpha=*/1.5, /*n_min=*/0);

    mvcom::core::SeParams params;
    params.threads = 25;
    params.max_iterations = 5000;
    params.convergence_window = 1500;
    mvcom::core::SeScheduler se(instance, params, seed);
    const auto se_result = se.run();
    se_vd.push_back(se_result.valuable_degree);

    mvcom::baselines::SaParams sa_params;
    sa_params.iterations = 20000;
    mvcom::baselines::SimulatedAnnealing sa(sa_params, seed);
    sa_vd.push_back(sa.solve(instance).valuable_degree);

    mvcom::baselines::DynamicProgramming dp;
    dp_vd.push_back(dp.solve(instance).valuable_degree);

    mvcom::baselines::WhaleOptimization woa(seed);
    woa_vd.push_back(woa.solve(instance).valuable_degree);

    mvcom::baselines::Greedy greedy;
    greedy_vd.push_back(greedy.solve(instance).valuable_degree);
  }

  const auto report = [](const char* name, const std::vector<double>& v) {
    const auto ci = mvcom::common::mean_confidence_interval(v, 0.95);
    std::printf("  %-28s %12.3f +- %.3f (95%% CI over %zu seeds)\n", name,
                ci.mean, ci.half_width, v.size());
  };
  report("SE  (proposed)", se_vd);
  report("SA", sa_vd);
  report("DP", dp_vd);
  report("WOA", woa_vd);
  report("Greedy (extra baseline)", greedy_vd);
  std::printf("  (expected shape: SE highest, SA close, DP/WOA clearly "
              "lower)\n");
  return 0;
}
