#include "baselines/dynamic_programming.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace mvcom::baselines {

SolverResult DynamicProgramming::solve(const EpochInstance& instance) {
  const auto& committees = instance.committees();
  const std::size_t n = instance.size();

  // Scale weights so the DP table stays bounded. Rounding up keeps every DP
  // solution capacity-feasible in the unscaled problem.
  const std::uint64_t capacity = instance.capacity();
  const std::uint64_t scale =
      std::max<std::uint64_t>(1, (capacity + kDpMaxBuckets - 1) /
                                     kDpMaxBuckets);
  const auto buckets = static_cast<std::size_t>(capacity / scale);

  std::vector<std::size_t> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = static_cast<std::size_t>((committees[i].txs + scale - 1) / scale);
  }

  // dp[w] = best value with total (scaled) weight exactly <= w.
  // taken[i] marks, per item, the weights at which item i was chosen.
  std::vector<double> dp(buckets + 1, 0.0);
  std::vector<std::vector<bool>> taken(n, std::vector<bool>(buckets + 1, false));

  for (std::size_t i = 0; i < n; ++i) {
    const double value = params_.objective == DpObjective::kThroughput
                             ? static_cast<double>(committees[i].txs)
                             : instance.gain(i);
    if (value <= 0.0) continue;  // non-positive value never helps the DP
    const std::size_t w_i = weight[i];
    if (w_i > buckets) continue;
    for (std::size_t w = buckets; w >= w_i; --w) {
      const double candidate = dp[w - w_i] + value;
      if (candidate > dp[w]) {
        dp[w] = candidate;
        taken[i][w] = true;
      }
      if (w == w_i) break;  // avoid size_t underflow
    }
  }

  // Reconstruct.
  Selection x(n, 0);
  std::size_t w = buckets;
  for (std::size_t i = n; i-- > 0;) {
    if (w >= weight[i] && taken[i][w]) {
      x[i] = 1;
      w -= weight[i];
    }
  }

  SolverResult result;
  result.iterations = 1;
  // DP ignores N_min; the top-up adds the cheapest shards if needed.
  result.best = core::top_up(instance, std::move(x));
  finalize_result(instance, result);
  result.utility_trace.assign(
      1, result.feasible ? result.utility
                         : std::numeric_limits<double>::quiet_NaN());
  return result;
}

}  // namespace mvcom::baselines
