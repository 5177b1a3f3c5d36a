// Tests for common/stats — means, percentiles, CDFs, confidence intervals.

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace {

using mvcom::common::cdf_at_quantiles;
using mvcom::common::percentile;
using mvcom::common::Rng;

TEST(MeanTest, KnownValues) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mvcom::common::mean(v), 5.0);
}

TEST(MeanTest, EmptySampleIsZero) {
  EXPECT_EQ(mvcom::common::mean(std::vector<double>{}), 0.0);
}

TEST(MeanTest, SingleElement) {
  EXPECT_DOUBLE_EQ(mvcom::common::mean(std::vector<double>{42.5}), 42.5);
}

TEST(MeanTest, StableForLargeOffsetSamples) {
  // Welford pass must not lose the small deltas riding on a large offset —
  // the naive sum-then-divide does here in float, and can in double for
  // longer streams.
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) {
    v.push_back(1e9 + (i % 2 == 0 ? 0.25 : 0.75));
  }
  EXPECT_NEAR(mvcom::common::mean(v), 1e9 + 0.5, 1e-6);
}

TEST(PercentileTest, MedianAndExtremes) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(PercentileTest, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 7.5);
}

TEST(PercentileTest, SingleElement) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
}

TEST(CdfAtQuantilesTest, EndpointsAndCount) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const auto points = cdf_at_quantiles(v, 11);
  ASSERT_EQ(points.size(), 11u);
  EXPECT_DOUBLE_EQ(points.front().value, 0.0);
  EXPECT_DOUBLE_EQ(points.front().cumulative_probability, 0.0);
  EXPECT_DOUBLE_EQ(points.back().value, 100.0);
  EXPECT_DOUBLE_EQ(points.back().cumulative_probability, 1.0);
  EXPECT_NEAR(points[5].value, 50.0, 1e-9);
}

TEST(MeanCiTest, KnownSample) {
  // n=4, mean 2.5, sample sd = sqrt(5/3); 95% half-width = 1.96·sd/2.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const auto ci = mvcom::common::mean_confidence_interval(v, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 2.5);
  EXPECT_NEAR(ci.half_width, 1.96 * std::sqrt(5.0 / 3.0) / 2.0, 1e-3);
}

TEST(MeanCiTest, SampleVarianceUsesNMinusOne) {
  // Σ(x−5)² = 32 over n = 8, so s² = 32/7 and the 95% half-width is
  // 1.96·√(32/7)/√8.
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto ci = mvcom::common::mean_confidence_interval(v, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_NEAR(ci.half_width, 1.96 * std::sqrt(32.0 / 7.0) / std::sqrt(8.0),
              1e-12);
}

TEST(MeanCiTest, WiderConfidenceWiderInterval) {
  const std::vector<double> v{1.0, 5.0, 3.0, 2.0, 4.0, 6.0};
  const auto c90 = mvcom::common::mean_confidence_interval(v, 0.90);
  const auto c99 = mvcom::common::mean_confidence_interval(v, 0.99);
  EXPECT_LT(c90.half_width, c99.half_width);
  EXPECT_DOUBLE_EQ(c90.mean, c99.mean);
}

TEST(MeanCiTest, CoversTheTrueMeanMostOfTheTime) {
  // Property check: ~95% of intervals from N(10, 2) samples cover 10.
  Rng rng(77);
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> sample;
    for (int i = 0; i < 30; ++i) sample.push_back(rng.normal(10.0, 2.0));
    const auto ci = mvcom::common::mean_confidence_interval(sample, 0.95);
    if (std::abs(ci.mean - 10.0) <= ci.half_width) ++covered;
  }
  EXPECT_GT(covered, trials * 88 / 100);
  EXPECT_LT(covered, trials * 100 / 100);
}

TEST(MeanCiTest, RejectsBadInputs) {
  EXPECT_THROW(static_cast<void>(
                   mvcom::common::mean_confidence_interval({}, 0.95)),
               std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW(static_cast<void>(
                   mvcom::common::mean_confidence_interval(v, 0.42)),
               std::invalid_argument);
}

}  // namespace
