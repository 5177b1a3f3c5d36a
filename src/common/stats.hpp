#pragma once
// Streaming and batch statistics used across the simulator and the
// experiment harness: running moments (Welford), percentiles, CDFs at fixed
// quantiles and mean confidence intervals. These back the CDF plots (Fig. 2b,
// Fig. 13) and the convergence-trace summaries of every experiment.

#include <cstddef>
#include <span>
#include <vector>

namespace mvcom::common {

/// Numerically stable streaming moments (Welford's online algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator (parallel reduction; Chan et al.).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean of a sample; 0 for an empty sample (matching
/// RunningStats::mean()). One Welford pass — benches previously hand-rolled
/// this loop; use this instead.
[[nodiscard]] double mean(std::span<const double> sample);

/// Linear-interpolated percentile of a sample, q in [0, 1].
/// Copies and sorts internally; intended for post-run analysis, not hot paths.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// One point of an empirical CDF: P[X <= value] = cumulative_probability.
struct CdfPoint {
  double value;
  double cumulative_probability;
};

/// Empirical CDF evaluated at a fixed number of evenly spaced quantiles —
/// compact representation for printing figure series.
[[nodiscard]] std::vector<CdfPoint> cdf_at_quantiles(
    std::span<const double> sample, std::size_t points);

/// Mean with a normal-approximation confidence interval (mean ± z·s/√n).
/// `confidence` ∈ {0.90, 0.95, 0.99} (the usual z table); other values
/// throw. Experiment harnesses report mean ± half_width.
struct MeanCi {
  double mean = 0.0;
  double half_width = 0.0;
};
[[nodiscard]] MeanCi mean_confidence_interval(std::span<const double> sample,
                                              double confidence = 0.95);

}  // namespace mvcom::common
