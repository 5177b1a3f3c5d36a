#pragma once
// Batch statistics used across the experiment harness: means, percentiles,
// CDFs at fixed quantiles and mean confidence intervals. These back the CDF
// plots (Fig. 2b, Fig. 13) and the convergence-trace summaries of every
// experiment.

#include <cstddef>
#include <span>
#include <vector>

namespace mvcom::common {

/// Arithmetic mean of a sample; 0 for an empty sample. One Welford pass,
/// which keeps small deltas riding on a large offset.
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

/// Mean with a normal-approximation confidence interval (mean ± z·s/√n,
/// s the sample standard deviation with an n−1 denominator).
/// `confidence` ∈ {0.90, 0.95, 0.99} (the usual z table); other values
/// throw. Experiment harnesses report mean ± half_width.
struct MeanCi {
  double mean = 0.0;
  double half_width = 0.0;
};
[[nodiscard]] MeanCi mean_confidence_interval(std::span<const double> sample,
                                              double confidence = 0.95);

}  // namespace mvcom::common
