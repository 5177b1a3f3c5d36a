#include "analysis/convergence.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mvcom::analysis {

MixingEstimate estimate_mixing_time(const SolutionSpace& space, double beta,
                                    double tau, double epsilon, double horizon,
                                    std::size_t trajectories,
                                    std::size_t checkpoints,
                                    common::Rng& rng) {
  if (space.states.empty() || trajectories == 0 || checkpoints == 0) {
    throw std::invalid_argument("estimate_mixing_time: degenerate inputs");
  }

  // The Eq.-(7) rate graph in natural units. Intended for small enumerable
  // instances where beta * utility spread stays well within double range.
  const RateGraph graph = build_rate_graph(space, beta, tau, 0.0);

  // Worst-case start per the Theorem-1 intuition: the minimum-utility state.
  const std::size_t start = static_cast<std::size_t>(
      std::min_element(space.utilities.begin(), space.utilities.end()) -
      space.utilities.begin());

  // Geometric checkpoint grid.
  MixingEstimate estimate;
  estimate.checkpoint_times.resize(checkpoints);
  const double first = horizon / std::pow(2.0, static_cast<double>(checkpoints - 1));
  for (std::size_t c = 0; c < checkpoints; ++c) {
    estimate.checkpoint_times[c] =
        first * std::pow(2.0, static_cast<double>(c));
  }

  std::vector<std::vector<double>> occupancy(
      checkpoints, std::vector<double>(space.states.size(), 0.0));

  for (std::size_t run = 0; run < trajectories; ++run) {
    std::size_t state = start;
    double t = 0.0;
    std::size_t next_checkpoint = 0;
    while (next_checkpoint < checkpoints) {
      // Absorbing (cannot happen if connected).
      if (graph.edges[state].empty()) break;
      const double dwell = rng.exponential(1.0 / graph.exit_rate[state]);
      // Record every checkpoint the dwell interval covers.
      while (next_checkpoint < checkpoints &&
             estimate.checkpoint_times[next_checkpoint] <= t + dwell) {
        occupancy[next_checkpoint][state] += 1.0;
        ++next_checkpoint;
      }
      t += dwell;
      state = graph.pick(state, rng);
    }
  }

  const auto p_star = stationary_distribution(space, beta);
  estimate.tv_distance.resize(checkpoints);
  for (std::size_t c = 0; c < checkpoints; ++c) {
    for (double& v : occupancy[c]) v /= static_cast<double>(trajectories);
    estimate.tv_distance[c] = total_variation(occupancy[c], p_star);
    if (estimate.t_mix < 0.0 && estimate.tv_distance[c] <= epsilon) {
      estimate.t_mix = estimate.checkpoint_times[c];
    }
  }
  return estimate;
}

}  // namespace mvcom::analysis
