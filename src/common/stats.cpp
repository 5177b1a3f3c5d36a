#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mvcom::common {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> sample) {
  RunningStats s;
  for (const double x : sample) s.add(x);
  return s.mean();
}

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
  RunningStats stats;
  for (const double x : sample) stats.add(x);
  MeanCi ci;
  ci.mean = stats.mean();
  ci.half_width = z * stats.stddev() /
                  std::sqrt(static_cast<double>(stats.count()));
  return ci;
}

}  // namespace mvcom::common
