// Property-style sweeps for the SE scheduler: determinism, optimality
// envelopes across seeds, constraint boundaries, and join/leave dynamics
// between stepping stretches.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/exhaustive.hpp"
#include "common/rng.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

using mvcom::baselines::Exhaustive;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::core::SeParams;
using mvcom::core::SeScheduler;

EpochInstance random_instance(std::uint64_t seed, std::size_t n,
                              std::size_t n_min, double capacity_fraction) {
  mvcom::common::Rng rng(seed);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Committee c{static_cast<std::uint32_t>(i), 500 + rng.below(1500),
                600.0 + rng.uniform(0.0, 900.0)};
    total += c.txs;
    committees.push_back(c);
  }
  return EpochInstance(std::move(committees), 1.5,
                       static_cast<std::uint64_t>(
                           capacity_fraction * static_cast<double>(total)),
                       n_min);
}

TEST(SePropertyTest, FullRunIsDeterministicPerSeed) {
  const EpochInstance inst = random_instance(1, 14, 3, 0.7);
  SeParams params;
  params.threads = 3;
  params.max_iterations = 800;
  SeScheduler a(inst, params, 99);
  SeScheduler b(inst, params, 99);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.best, rb.best);
  EXPECT_DOUBLE_EQ(ra.utility, rb.utility);
  EXPECT_EQ(ra.utility_trace.size(), rb.utility_trace.size());
}

TEST(SePropertyTest, DifferentSeedsExploreDifferently) {
  const EpochInstance inst = random_instance(2, 14, 3, 0.7);
  SeParams params;
  params.threads = 1;
  params.max_iterations = 50;  // early, before convergence erases history
  params.convergence_window = 60;
  SeScheduler a(inst, params, 1);
  SeScheduler b(inst, params, 2);
  const auto ra = a.run();
  const auto rb = b.run();
  // Traces should differ somewhere (same would mean the seed is ignored).
  EXPECT_NE(ra.utility_trace, rb.utility_trace);
}

// Seed sweep: SE never exceeds the exhaustive optimum and lands within 95%.
class SeSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeSeedSweep, WithinOptimalityEnvelope) {
  const std::uint64_t seed = GetParam();
  const EpochInstance inst = random_instance(seed, 13, 3, 0.65);
  Exhaustive exact;
  const auto truth = exact.solve(inst);
  ASSERT_TRUE(truth.feasible);
  SeParams params;
  params.threads = 4;
  params.max_iterations = 2000;
  SeScheduler scheduler(inst, params, seed * 1000 + 7);
  const auto result = scheduler.run();
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.utility, truth.utility + 1e-6);
  EXPECT_GE(result.utility, 0.95 * truth.utility);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeSeedSweep,
                         ::testing::Values(3, 5, 8, 13, 21, 34, 55, 89));

TEST(SePropertyTest, ExactCapacityBoundaryIsUsable) {
  // Capacity exactly equal to the total: the full set is feasible and (all
  // gains positive with a tiny deadline) optimal.
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    committees.push_back({i, 100, 10.0 + i});
    total += 100;
  }
  const EpochInstance inst(committees, 10.0, total, 0);
  SeParams params;
  params.threads = 2;
  SeScheduler scheduler(inst, params, 3);
  const auto result = scheduler.run();
  ASSERT_TRUE(result.feasible);
  for (const auto bit : result.best) EXPECT_EQ(bit, 1);
}

TEST(SePropertyTest, NminEqualToSizeForcesFullSet) {
  std::vector<Committee> committees;
  for (std::uint32_t i = 0; i < 6; ++i) {
    committees.push_back({i, 100, 10.0 + i});
  }
  const EpochInstance inst(committees, 1.0, 10'000, 6);
  SeParams params;
  params.threads = 2;
  SeScheduler scheduler(inst, params, 4);
  const auto result = scheduler.run();
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(inst.stats(result.best).chosen, 6u);
}

TEST(SePropertyTest, SingleCommitteeInstance) {
  const EpochInstance inst({{7, 500, 100.0}}, 2.0, 1000, 1);
  SeParams params;
  SeScheduler scheduler(inst, params, 5);
  const auto result = scheduler.run();
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.best, Selection{1});
  EXPECT_DOUBLE_EQ(result.utility, 1000.0);  // α·s − 0 age (own deadline)
}

TEST(SePropertyTest, JoinAndLeaveAfterSteppingKeepAFeasibleSelection) {
  const EpochInstance inst = random_instance(6, 10, 2, 0.7);
  SeParams params;
  params.threads = 2;
  SeScheduler scheduler(inst, params, 6);
  for (int i = 0; i < 500; ++i) scheduler.step();
  scheduler.add_committee({50, 900, 1000.0});
  scheduler.remove_committee(0);
  for (int i = 0; i < 500; ++i) scheduler.step();
  const Selection x = scheduler.current_selection();
  ASSERT_FALSE(x.empty());
  EXPECT_TRUE(scheduler.instance().feasible(x));
}

TEST(SePropertyTest, ConvergenceWindowStopsEarly) {
  const EpochInstance inst = random_instance(7, 10, 2, 0.9);
  SeParams params;
  params.threads = 2;
  params.max_iterations = 50'000;
  params.convergence_window = 200;
  SeScheduler scheduler(inst, params, 8);
  const auto result = scheduler.run();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50'000u);
}

TEST(SePropertyTest, AlphaScalingShiftsSelectionTowardThroughput) {
  // Larger α makes the scheduler keep bigger (possibly older) shards: the
  // permitted TX count is non-decreasing in α on the same instance data.
  mvcom::common::Rng rng(9);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    Committee c{i, 500 + rng.below(1500), 600.0 + rng.uniform(0.0, 900.0)};
    total += c.txs;
    committees.push_back(c);
  }
  std::uint64_t prev_txs = 0;
  for (const double alpha : {0.3, 1.5, 10.0}) {
    const EpochInstance inst(committees, alpha, (total * 7) / 10, 0);
    SeParams params;
    params.threads = 4;
    params.max_iterations = 2500;
    SeScheduler scheduler(inst, params, 10);
    const auto result = scheduler.run();
    ASSERT_TRUE(result.feasible);
    const std::uint64_t txs = inst.permitted_txs(result.best);
    EXPECT_GE(txs + total / 100, prev_txs) << "alpha " << alpha;  // 1% slack
    prev_txs = txs;
  }
}

}  // namespace
