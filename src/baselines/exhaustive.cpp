#include "baselines/exhaustive.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

namespace mvcom::baselines {
namespace {

/// The largest instance enumerated: 2^24 selections.
constexpr std::size_t kMaxSize = 24;

}  // namespace

SolverResult Exhaustive::solve(const EpochInstance& instance) {
  const std::size_t n = instance.size();
  if (n > kMaxSize) {
    throw std::invalid_argument("Exhaustive: instance too large");
  }
  const auto& committees = instance.committees();

  double best_utility = -std::numeric_limits<double>::infinity();
  std::uint64_t best_mask = 0;
  bool found = false;

  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) < instance.n_min()) {
      continue;
    }
    std::uint64_t txs = 0;
    double utility = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) {
        txs += committees[i].txs;
        utility += instance.gain(i);
      }
    }
    if (txs > instance.capacity()) continue;
    if (!found || utility > best_utility) {
      found = true;
      best_utility = utility;
      best_mask = mask;
    }
  }

  SolverResult result;
  result.iterations = 1;
  if (found) {
    Selection x(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = (best_mask >> i) & 1 ? 1 : 0;
    }
    result.best = std::move(x);
  }
  finalize_result(instance, result);
  result.utility_trace.assign(
      1, result.feasible ? result.utility
                         : std::numeric_limits<double>::quiet_NaN());
  return result;
}

}  // namespace mvcom::baselines
