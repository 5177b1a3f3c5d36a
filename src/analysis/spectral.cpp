#include "analysis/spectral.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mvcom::analysis {

double SpectralResult::t_mix_upper(double epsilon) const {
  assert(epsilon > 0.0 && epsilon < 1.0);
  return relaxation_time * std::log(1.0 / (epsilon * pi_min));
}

double SpectralResult::t_mix_lower(double epsilon) const {
  assert(epsilon > 0.0 && epsilon < 0.5);
  return std::max(0.0, relaxation_time - 1.0) *
         std::log(1.0 / (2.0 * epsilon));
}

SpectralResult spectral_gap(const SolutionSpace& space, double beta,
                            double tau, std::size_t iterations) {
  const std::size_t n = space.states.size();
  if (n < 2) {
    throw std::invalid_argument("spectral_gap: need at least two states");
  }
  if (n > 5000) {
    throw std::invalid_argument("spectral_gap: space too large (dense O(n^2))");
  }

  // Generator Q: q_ij per Eq. (7) for swap neighbors, diagonal = −row sum.
  const RateGraph graph = build_rate_graph(space, beta, tau, 0.0);
  std::vector<double> q(n * n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (const RateGraph::Edge& e : graph.edges[s]) q[s * n + e.to] = e.rate;
    q[s * n + s] = -graph.exit_rate[s];
  }

  // Stationary law and the symmetrization S = D^{1/2} Q D^{-1/2}; for a
  // reversible chain S is symmetric with the same spectrum as Q.
  const std::vector<double> pi = stationary_distribution(space, beta);
  std::vector<double> sym(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      sym[i * n + j] = std::sqrt(pi[i]) * q[i * n + j] / std::sqrt(pi[j]);
    }
  }

  // Shift: by Gershgorin the spectrum of S lies in [−2·max_exit, 0], so
  // A = S + cI with c = 2·max_exit is positive semidefinite; its top
  // eigenpair is (c, √π). Deflate it and power-iterate for the second
  // eigenvalue c − λ_gap.
  double shift = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    shift = std::max(shift, -sym[i * n + i]);
  }
  shift *= 2.0;
  std::vector<double> top(n);
  for (std::size_t i = 0; i < n; ++i) top[i] = std::sqrt(pi[i]);

  // Deterministic start vector, deflated against `top`.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0 + static_cast<double>(i % 7);
  }
  auto deflate = [&](std::vector<double>& x) {
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) dot += x[i] * top[i];
    for (std::size_t i = 0; i < n; ++i) x[i] -= dot * top[i];
  };
  auto normalize = [&](std::vector<double>& x) {
    double norm = 0.0;
    for (const double e : x) norm += e * e;
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (double& e : x) e /= norm;
    }
    return norm;
  };
  deflate(v);
  normalize(v);

  std::vector<double> w(n);
  double eigen = 0.0;
  for (std::size_t it = 0; it < iterations; ++it) {
    // w = (S + shift·I) v
    for (std::size_t i = 0; i < n; ++i) {
      double acc = shift * v[i];
      const double* row = &sym[i * n];
      for (std::size_t j = 0; j < n; ++j) acc += row[j] * v[j];
      w[i] = acc;
    }
    deflate(w);
    const double norm = normalize(w);
    v.swap(w);
    if (it + 1 == iterations) eigen = norm;
  }

  SpectralResult result;
  result.max_exit_rate = 0.5 * shift;  // shift was set to 2·max_exit
  result.gap = std::max(0.0, shift - eigen);
  result.relaxation_time =
      result.gap > 0.0 ? 1.0 / result.gap
                       : std::numeric_limits<double>::infinity();
  result.pi_min = *std::min_element(pi.begin(), pi.end());
  return result;
}

}  // namespace mvcom::analysis
