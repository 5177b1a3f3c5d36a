#include "analysis/markov.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace mvcom::analysis {
namespace {

constexpr std::size_t kMaxEnumerable = 20;

double utility_of_mask(const EpochInstance& instance, std::uint32_t mask) {
  double u = 0.0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    if (mask & (std::uint32_t{1} << i)) u += instance.gain(i);
  }
  return u;
}

bool capacity_ok(const EpochInstance& instance, std::uint32_t mask) {
  std::uint64_t txs = 0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    if (mask & (std::uint32_t{1} << i)) txs += instance.committees()[i].txs;
  }
  return txs <= instance.capacity();
}

}  // namespace

SolutionSpace enumerate_space(const EpochInstance& instance,
                              std::size_t cardinality) {
  if (instance.size() > kMaxEnumerable) {
    throw std::invalid_argument("enumerate_space: instance too large");
  }
  SolutionSpace space;
  space.cardinality = cardinality;
  const auto limit = std::uint32_t{1} << instance.size();
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) != cardinality) continue;
    if (!capacity_ok(instance, mask)) continue;
    space.states.push_back(mask);
    space.utilities.push_back(utility_of_mask(instance, mask));
  }
  return space;
}

SolutionSpace enumerate_full_space(const EpochInstance& instance) {
  if (instance.size() > kMaxEnumerable) {
    throw std::invalid_argument("enumerate_full_space: instance too large");
  }
  SolutionSpace space;
  space.cardinality = 0;  // mixed cardinalities
  const auto limit = std::uint32_t{1} << instance.size();
  space.states.reserve(limit);
  space.utilities.reserve(limit);
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    space.states.push_back(mask);
    space.utilities.push_back(utility_of_mask(instance, mask));
  }
  return space;
}

std::vector<double> stationary_distribution(const SolutionSpace& space,
                                            double beta) {
  assert(!space.states.empty());
  const double shift =
      *std::max_element(space.utilities.begin(), space.utilities.end());
  std::vector<double> p(space.states.size());
  double z = 0.0;
  for (std::size_t s = 0; s < p.size(); ++s) {
    p[s] = std::exp(beta * (space.utilities[s] - shift));
    z += p[s];
  }
  for (double& v : p) v /= z;
  return p;
}

RateGraph build_rate_graph(const SolutionSpace& space, double beta,
                           double tau, double shift) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(space.states.size());
  for (std::size_t s = 0; s < space.states.size(); ++s) {
    index.emplace(space.states[s], s);
  }
  RateGraph graph;
  graph.edges.resize(space.states.size());
  graph.exit_rate.assign(space.states.size(), 0.0);
  for (std::size_t s = 0; s < space.states.size(); ++s) {
    const std::uint32_t mask = space.states[s];
    for (std::uint32_t out = 0; out < 32; ++out) {
      if (!(mask & (std::uint32_t{1} << out))) continue;
      for (std::uint32_t in = 0; in < 32; ++in) {
        if (mask & (std::uint32_t{1} << in)) continue;
        const std::uint32_t next =
            (mask & ~(std::uint32_t{1} << out)) | (std::uint32_t{1} << in);
        const auto it = index.find(next);
        if (it == index.end()) continue;  // infeasible neighbor: rate 0
        const double rate = std::exp(
            -tau + 0.5 * beta * (space.utilities[it->second] -
                                 space.utilities[s]) -
            shift);
        graph.edges[s].push_back({it->second, rate});
        graph.exit_rate[s] += rate;
      }
    }
  }
  return graph;
}

std::size_t RateGraph::pick(std::size_t state, common::Rng& rng) const {
  const std::vector<Edge>& out = edges[state];
  double u = rng.uniform01() * exit_rate[state];
  for (const Edge& e : out) {
    u -= e.rate;
    if (u <= 0.0) return e.to;
  }
  return out.back().to;
}

std::vector<double> simulate_occupancy(const SolutionSpace& space, double beta,
                                       double tau, std::size_t transitions,
                                       common::Rng& rng) {
  assert(!space.states.empty());
  // Shift all rate exponents so none overflows; a global rate rescale only
  // rescales time, leaving time-weighted occupancy proportions intact.
  const auto [umin_it, umax_it] =
      std::minmax_element(space.utilities.begin(), space.utilities.end());
  const RateGraph graph =
      build_rate_graph(space, beta, tau, 0.5 * beta * (*umax_it - *umin_it));

  std::vector<double> occupancy(space.states.size(), 0.0);
  std::size_t current = rng.below(space.states.size());
  for (std::size_t jump = 0; jump < transitions; ++jump) {
    const double exit_rate = graph.exit_rate[current];
    if (exit_rate <= 0.0 || graph.edges[current].empty()) {
      // Absorbing under swap moves (shouldn't happen in connected spaces).
      occupancy[current] += 1.0;
      break;
    }
    occupancy[current] += rng.exponential(1.0 / exit_rate);
    current = graph.pick(current, rng);
  }

  double total = 0.0;
  for (const double t : occupancy) total += t;
  if (total > 0.0) {
    for (double& t : occupancy) t /= total;
  }
  return occupancy;
}

double total_variation(const std::vector<double>& p,
                       const std::vector<double>& q) {
  assert(p.size() == q.size());
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) d += std::abs(p[i] - q[i]);
  return 0.5 * d;
}

FailurePerturbation failure_perturbation(const SolutionSpace& space,
                                         double beta, std::uint32_t failed) {
  assert(!space.states.empty());
  const std::uint32_t failed_bit = std::uint32_t{1} << failed;

  // Split F into the trimmed space G (states avoiding the failed committee)
  // and F\G. Distributions computed with a shared max-shift.
  const double shift =
      *std::max_element(space.utilities.begin(), space.utilities.end());
  double z_full = 0.0;
  double z_trimmed = 0.0;
  std::size_t trimmed_states = 0;
  for (std::size_t s = 0; s < space.states.size(); ++s) {
    const double w = std::exp(beta * (space.utilities[s] - shift));
    z_full += w;
    if (!(space.states[s] & failed_bit)) {
      z_trimmed += w;
      ++trimmed_states;
    }
  }
  if (trimmed_states == 0) {
    throw std::invalid_argument(
        "failure_perturbation: no state avoids the failed committee");
  }

  FailurePerturbation result;
  double expected_q = 0.0;    // Σ q*_g U_g over G (Eq. 15)
  double expected_qt = 0.0;   // Σ q̃_g U_g over G (Eq. 16)
  for (std::size_t s = 0; s < space.states.size(); ++s) {
    if (space.states[s] & failed_bit) continue;
    const double w = std::exp(beta * (space.utilities[s] - shift));
    const double q_star = w / z_trimmed;   // stationary on G (Eq. 15)
    const double q_tilde = w / z_full;     // at-failure distribution (Eq. 16)
    result.tv_distance += std::abs(q_star - q_tilde);
    expected_q += q_star * space.utilities[s];
    expected_qt += q_tilde * space.utilities[s];
    result.max_trimmed_utility =
        std::max(result.max_trimmed_utility, space.utilities[s]);
  }
  result.tv_distance *= 0.5;
  result.utility_shift = std::abs(expected_q - expected_qt);
  result.trimmed_fraction =
      static_cast<double>(space.states.size() - trimmed_states) /
      static_cast<double>(space.states.size());
  return result;
}

}  // namespace mvcom::analysis
