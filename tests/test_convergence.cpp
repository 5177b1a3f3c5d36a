// Tests for the empirical mixing-time estimator, plus the SE scheduler's
// thread-cooperation share points.

#include <gtest/gtest.h>

#include "analysis/convergence.hpp"
#include "analysis/theory.hpp"
#include "common/rng.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

using mvcom::analysis::enumerate_space;
using mvcom::analysis::estimate_mixing_time;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::SeParams;
using mvcom::core::SeScheduler;

EpochInstance small_instance(std::uint64_t seed, std::size_t n = 8) {
  mvcom::common::Rng rng(seed);
  std::vector<Committee> committees;
  for (std::size_t i = 0; i < n; ++i) {
    committees.push_back({static_cast<std::uint32_t>(i), 2 + rng.below(6),
                          rng.uniform(0.0, 4.0)});
  }
  return EpochInstance(std::move(committees), 1.0, 10'000, 0);
}

TEST(MixingEstimateTest, TvDistanceDecreasesOverTime) {
  const EpochInstance inst = small_instance(1, 7);
  const auto space = enumerate_space(inst, 3);
  mvcom::common::Rng rng(2);
  const auto estimate = estimate_mixing_time(space, 1.0, 0.0, /*epsilon=*/0.1,
                                             /*horizon=*/64.0,
                                             /*trajectories=*/4000,
                                             /*checkpoints=*/8, rng);
  ASSERT_EQ(estimate.tv_distance.size(), 8u);
  // Early checkpoints far from stationary, late ones close.
  EXPECT_GT(estimate.tv_distance.front(), estimate.tv_distance.back());
  EXPECT_LT(estimate.tv_distance.back(), 0.1);
  EXPECT_GT(estimate.t_mix, 0.0);
}

TEST(MixingEstimateTest, SharperBetaMixesNoFasterToTighterTargets) {
  // Remark 2's tradeoff, measured: larger beta concentrates the stationary
  // law but slows mixing (in chain time).
  const EpochInstance inst = small_instance(3, 7);
  const auto space = enumerate_space(inst, 3);
  mvcom::common::Rng rng_a(4);
  mvcom::common::Rng rng_b(4);
  const auto gentle = estimate_mixing_time(space, 0.5, 0.0, 0.05, 256.0,
                                           4000, 10, rng_a);
  const auto sharp = estimate_mixing_time(space, 3.0, 0.0, 0.05, 256.0,
                                          4000, 10, rng_b);
  ASSERT_GT(gentle.t_mix, 0.0);
  if (sharp.t_mix > 0.0) {
    EXPECT_GE(sharp.t_mix, gentle.t_mix);
  }  // else: did not mix within the horizon — even stronger evidence
}

TEST(MixingEstimateTest, RejectsDegenerateInputs) {
  const EpochInstance inst = small_instance(5, 6);
  const auto space = enumerate_space(inst, 2);
  mvcom::common::Rng rng(6);
  EXPECT_THROW(estimate_mixing_time(space, 1.0, 0.0, 0.1, 10.0, 0, 4, rng),
               std::invalid_argument);
  EXPECT_THROW(estimate_mixing_time(space, 1.0, 0.0, 0.1, 10.0, 10, 0, rng),
               std::invalid_argument);
}

TEST(SeSharingTest, SharingNeverDegradesConvergedUtility) {
  const EpochInstance inst = small_instance(13, 14);
  SeParams sharing;
  sharing.threads = 4;
  sharing.max_iterations = 800;
  sharing.share_interval = 50;
  SeParams isolated = sharing;
  isolated.share_interval = 0;
  SeScheduler with(inst, sharing, 7);
  SeScheduler without(inst, isolated, 7);
  const auto with_result = with.run();
  const auto without_result = without.run();
  ASSERT_TRUE(with_result.feasible && without_result.feasible);
  EXPECT_GE(with_result.utility, without_result.utility - 1e-9);
}

}  // namespace
