// Tests for the empirical mixing-time estimator, plus cross-mode consistency
// of the two SE transition kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/convergence.hpp"
#include "analysis/theory.hpp"
#include "baselines/exhaustive.hpp"
#include "common/rng.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

using mvcom::analysis::enumerate_space;
using mvcom::analysis::estimate_mixing_time;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::SeParams;
using mvcom::core::SeScheduler;
using mvcom::core::SeTransition;

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

// --- SE transition-kernel consistency -----------------------------------------

TEST(SeTransitionModesTest, BothKernelsReachTheSameOptimumNeighborhood) {
  mvcom::baselines::Exhaustive exact;
  mvcom::common::Rng rng(11);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 12; ++i) {
    Committee c{i, 500 + rng.below(1500), 600.0 + rng.uniform(0.0, 900.0)};
    total += c.txs;
    committees.push_back(c);
  }
  const EpochInstance inst(committees, 1.5, (total * 7) / 10, 3);
  const auto truth = exact.solve(inst);
  ASSERT_TRUE(truth.feasible);

  SeParams parallel;
  parallel.threads = 4;
  parallel.max_iterations = 1500;
  parallel.transition = SeTransition::kChainParallel;
  SeParams race = parallel;
  race.transition = SeTransition::kTimerRace;
  race.max_iterations = 8000;  // one transition/iter needs a bigger budget

  SeScheduler chain_scheduler(inst, parallel, 42);
  SeScheduler race_scheduler(inst, race, 42);
  const auto chain_result = chain_scheduler.run();
  const auto race_result = race_scheduler.run();
  ASSERT_TRUE(chain_result.feasible);
  ASSERT_TRUE(race_result.feasible);
  EXPECT_GE(chain_result.utility, 0.95 * truth.utility);
  EXPECT_GE(race_result.utility, 0.95 * truth.utility);
  EXPECT_NEAR(chain_result.utility, race_result.utility,
              0.05 * std::abs(truth.utility));
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
