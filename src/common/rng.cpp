#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mvcom::common {

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  // Inverse CDF; 1 - u in (0, 1] avoids log(0).
  return -mean * std::log1p(-uniform01());
}

double Rng::normal(double mu, double sigma) noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return mu + sigma * spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return mu + sigma * u * factor;
}

double Rng::lognormal_mean_sd(double mean, double sd) noexcept {
  assert(mean > 0.0 && sd > 0.0);
  // Solve for the underlying normal parameters from the target moments:
  //   mean = exp(mu + sigma^2/2),  var = (exp(sigma^2)-1) exp(2mu+sigma^2).
  const double variance = sd * sd;
  const double sigma2 = std::log1p(variance / (mean * mean));
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(normal(mu, std::sqrt(sigma2)));
}

std::uint64_t Rng::poisson(double lambda) noexcept {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double product = uniform01();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform01();
    }
    return count;
  }
  // Normal approximation with continuity correction — adequate for workload
  // synthesis where lambda is the per-block transaction count (~10^3).
  const double draw = normal(lambda, std::sqrt(lambda));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : skew_(s) {
  // Negated so that a NaN skew fails too.
  if (!(n >= 1 && s >= 0.0 && std::isfinite(s))) {
    throw std::invalid_argument(
        "ZipfSampler: need n >= 1 and a finite skew >= 0");
  }
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

std::uint32_t ZipfSampler::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform01();
  // First k with cdf_[k] > u; u < 1 and cdf_.back() == 1 guarantee a hit.
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

}  // namespace mvcom::common
