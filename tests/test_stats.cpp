// Tests for common/stats — streaming moments, percentiles, CDFs, confidence
// intervals.

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace {

using mvcom::common::cdf_at_quantiles;
using mvcom::common::percentile;
using mvcom::common::Rng;
using mvcom::common::RunningStats;

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// Regression coverage for the batch mean() the benches now share instead of
// hand-rolling their own accumulation loops.
TEST(MeanTest, MatchesRunningStats) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (const double x : v) s.add(x);
  EXPECT_DOUBLE_EQ(mvcom::common::mean(v), s.mean());
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

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: Σ(x-5)² = 32, 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
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
