#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mvcom::common {

namespace {

/// Welford's pass: the running mean and the sum of squared deviations m2.
struct Moments {
  double mean = 0.0;
  double m2 = 0.0;
};

Moments moments(std::span<const double> sample) noexcept {
  Moments m;
  std::size_t n = 0;
  for (const double x : sample) {
    ++n;
    const double delta = x - m.mean;
    m.mean += delta / static_cast<double>(n);
    m.m2 += delta * (x - m.mean);
  }
  return m;
}

}  // namespace

double mean(std::span<const double> sample) { return moments(sample).mean; }

double percentile(std::span<const double> sample, double q) {
  assert(!sample.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<CdfPoint> cdf_at_quantiles(std::span<const double> sample,
                                       std::size_t points) {
  assert(points >= 2);
  std::vector<CdfPoint> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back({percentile(sample, q), q});
  }
  return out;
}

MeanCi mean_confidence_interval(std::span<const double> sample,
                                double confidence) {
  if (sample.empty()) {
    throw std::invalid_argument("mean_confidence_interval: empty sample");
  }
  double z = 0.0;
  if (confidence == 0.90) {
    z = 1.6449;
  } else if (confidence == 0.95) {
    z = 1.9600;
  } else if (confidence == 0.99) {
    z = 2.5758;
  } else {
    throw std::invalid_argument(
        "mean_confidence_interval: confidence must be 0.90/0.95/0.99");
  }
  const Moments m = moments(sample);
  const std::size_t n = sample.size();
  const double variance =
      n > 1 ? m.m2 / static_cast<double>(n - 1) : 0.0;
  MeanCi ci;
  ci.mean = m.mean;
  ci.half_width =
      z * std::sqrt(variance) / std::sqrt(static_cast<double>(n));
  return ci;
}

}  // namespace mvcom::common
