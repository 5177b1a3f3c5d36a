// Tests for the baseline solvers (SA, DP, WOA, Greedy, Exhaustive) and the
// shared N_min top-up: feasibility always, optimality never above the
// exhaustive ground truth, DP exactness in its knapsack regime.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dynamic_programming.hpp"
#include "baselines/exhaustive.hpp"
#include "baselines/greedy.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/solver.hpp"
#include "baselines/whale_optimization.hpp"
#include "common/rng.hpp"

namespace {

using mvcom::baselines::DynamicProgramming;
using mvcom::baselines::Exhaustive;
using mvcom::baselines::Greedy;
using mvcom::baselines::SimulatedAnnealing;
using mvcom::baselines::WhaleOptimization;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::core::top_up;

EpochInstance random_instance(std::uint64_t seed, std::size_t n = 12,
                              std::size_t n_min = 3,
                              double capacity_fraction = 0.7) {
  mvcom::common::Rng rng(seed);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Committee c;
    c.id = static_cast<std::uint32_t>(i);
    c.txs = 500 + rng.below(1500);
    c.latency = 600.0 + rng.uniform(0.0, 900.0);
    total += c.txs;
    committees.push_back(c);
  }
  return EpochInstance(std::move(committees), 1.5,
                       static_cast<std::uint64_t>(
                           capacity_fraction * static_cast<double>(total)),
                       n_min);
}

// --- core::top_up (the N_min top-up Greedy, DP and repair_random share) ----

TEST(RepairTest, UnderNminIsToppedUp) {
  const EpochInstance inst = random_instance(2, 12, 5);
  Selection x(inst.size(), 0);
  x[0] = 1;
  x = top_up(inst, std::move(x));
  ASSERT_FALSE(x.empty());
  const auto st = inst.stats(x);
  EXPECT_GE(st.chosen, 5u);
  EXPECT_LE(st.txs, inst.capacity());
  EXPECT_EQ(x[0], 1);
}

TEST(RepairTest, ImpossibleConstraintsReturnFalse) {
  // N_min = 3 but even the two smallest shards exceed capacity.
  std::vector<Committee> committees{
      {0, 100, 1.0}, {1, 110, 2.0}, {2, 120, 3.0}};
  const EpochInstance inst(committees, 1.0, 150, 3);
  EXPECT_TRUE(top_up(inst, Selection(3, 0)).empty());
}

TEST(RepairTest, FeasibleInputIsUntouched) {
  const EpochInstance inst = random_instance(3);
  Selection x(inst.size(), 0);
  x[0] = x[1] = x[2] = 1;
  if (inst.feasible(x)) {
    EXPECT_EQ(top_up(inst, x), x);
  }
}

// --- individual solvers -------------------------------------------------------

TEST(ExhaustiveTest, FindsTheTrueOptimum) {
  // Cross-check against a hand-computed 3-committee instance.
  std::vector<Committee> committees{
      {0, 10, 90.0}, {1, 20, 100.0}, {2, 15, 95.0}};
  // t=100. gains: 10α-10, 20α, 15α-5 with α=1 → 0, 20, 10.
  const EpochInstance inst(committees, 1.0, 35, 0, 100.0);
  Exhaustive exact;
  const auto result = exact.solve(inst);
  ASSERT_TRUE(result.feasible);
  // Best: {1,2} = 30 (20+15=35 <= 35 capacity).
  EXPECT_NEAR(result.utility, 30.0, 1e-9);
  EXPECT_EQ(result.best, (Selection{0, 1, 1}));
}

TEST(ExhaustiveTest, RefusesHugeInstances) {
  // 25 committees: one more than the 24 (2^24 selections) it enumerates.
  const EpochInstance inst = random_instance(4, 25);
  Exhaustive exact;
  EXPECT_THROW(exact.solve(inst), std::invalid_argument);
}

TEST(GreedyTest, FeasibleAndDeterministic) {
  const EpochInstance inst = random_instance(5);
  Greedy greedy;
  const auto a = greedy.solve(inst);
  const auto b = greedy.solve(inst);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.best, b.best);
  EXPECT_TRUE(inst.feasible(a.best));
}

TEST(DpTest, UtilityVariantExactInUnscaledKnapsackRegime) {
  // With scale = 1 (capacity < kDpMaxBuckets) and N_min = 0, the kUtility DP
  // must equal the exhaustive optimum: MVCom with those settings IS the
  // knapsack (Lemma 1).
  Exhaustive exact;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EpochInstance inst = random_instance(seed, 12, 0);
    mvcom::baselines::DpParams params;
    params.objective = mvcom::baselines::DpObjective::kUtility;
    DynamicProgramming dp(params);
    const auto dp_result = dp.solve(inst);
    const auto truth = exact.solve(inst);
    ASSERT_TRUE(dp_result.feasible);
    ASSERT_TRUE(truth.feasible);
    EXPECT_NEAR(dp_result.utility, truth.utility, 1e-6) << "seed " << seed;
  }
}

TEST(DpTest, ThroughputVariantPacksMoreTxsButNoMoreUtility) {
  // The paper's DP maximizes packed TXs; the utility-exact variant bounds
  // it from above on Eq. (2) while it bounds the others on throughput.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const EpochInstance inst = random_instance(seed, 14, 0);
    DynamicProgramming throughput_dp;  // default objective
    mvcom::baselines::DpParams params;
    params.objective = mvcom::baselines::DpObjective::kUtility;
    DynamicProgramming utility_dp(params);
    const auto tp = throughput_dp.solve(inst);
    const auto ut = utility_dp.solve(inst);
    ASSERT_TRUE(tp.feasible);
    ASSERT_TRUE(ut.feasible);
    EXPECT_LE(tp.utility, ut.utility + 1e-6) << "seed " << seed;
    EXPECT_GE(inst.permitted_txs(tp.best) + 1,
              inst.permitted_txs(ut.best))
        << "seed " << seed;
  }
}

TEST(DpTest, ScaledCapacityStaysFeasibleAndClose) {
  mvcom::common::Rng rng(7);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 60; ++i) {
    Committee c{i, 5'000 + rng.below(20'000), 600.0 + rng.uniform(0.0, 600.0)};
    total += c.txs;
    committees.push_back(c);
  }
  // capacity ~ 0.75 * 60 * 15000 ≈ 675k > kDpMaxBuckets, so the table is
  // scaled and every weight rounds up.
  const EpochInstance inst(committees, 1.5, (total * 3) / 4, 0);
  ASSERT_GT(inst.capacity(), mvcom::baselines::kDpMaxBuckets);
  mvcom::baselines::DpParams params;
  params.objective = mvcom::baselines::DpObjective::kUtility;
  DynamicProgramming dp(params);
  const auto scaled = dp.solve(inst);
  ASSERT_TRUE(scaled.feasible);
  EXPECT_TRUE(inst.feasible(scaled.best));
  // The fractional-knapsack bound lies above the exact optimum.
  const double bound = mvcom::core::fractional_bound(inst);
  EXPECT_LE(scaled.utility, bound);
  EXPECT_GE(scaled.utility, 0.99 * bound);
}

TEST(SaTest, FeasibleAndWithinOptimum) {
  Exhaustive exact;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EpochInstance inst = random_instance(seed, 12, 3);
    SimulatedAnnealing sa({}, seed * 3);
    const auto result = sa.solve(inst);
    const auto truth = exact.solve(inst);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_TRUE(inst.feasible(result.best));
    EXPECT_LE(result.utility, truth.utility + 1e-6);
    EXPECT_GE(result.utility, 0.85 * truth.utility) << "seed " << seed;
  }
}

TEST(SaTest, TraceIsMonotoneBestSoFar) {
  const EpochInstance inst = random_instance(8);
  SimulatedAnnealing sa({}, 11);
  const auto result = sa.solve(inst);
  double prev = -1e300;
  for (const double u : result.utility_trace) {
    if (std::isnan(u)) continue;
    EXPECT_GE(u, prev - 1e-9);
    prev = u;
  }
}

TEST(WoaTest, FeasibleAndBelowOptimum) {
  Exhaustive exact;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const EpochInstance inst = random_instance(seed, 12, 3);
    WhaleOptimization woa(seed * 5);
    const auto result = woa.solve(inst);
    const auto truth = exact.solve(inst);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_TRUE(inst.feasible(result.best));
    EXPECT_LE(result.utility, truth.utility + 1e-6);
  }
}

TEST(WoaTest, DeterministicPerSeed) {
  const EpochInstance inst = random_instance(9);
  WhaleOptimization a(42);
  WhaleOptimization b(42);
  EXPECT_EQ(a.solve(inst).best, b.solve(inst).best);
}

TEST(SolversOnInfeasibleInstance, AllReportInfeasible) {
  std::vector<Committee> committees{{0, 100, 1.0}, {1, 110, 2.0}};
  const EpochInstance inst(committees, 1.0, 50, 1);  // nothing fits
  SimulatedAnnealing sa({}, 1);
  DynamicProgramming dp;
  WhaleOptimization woa(1);
  Greedy greedy;
  Exhaustive exact;
  EXPECT_FALSE(sa.solve(inst).feasible);
  EXPECT_FALSE(dp.solve(inst).feasible);
  EXPECT_FALSE(woa.solve(inst).feasible);
  EXPECT_FALSE(greedy.solve(inst).feasible);
  EXPECT_FALSE(exact.solve(inst).feasible);
}

// Sweep capacity tightness: every solver stays feasible and under optimum.
class SolverCapacitySweep : public ::testing::TestWithParam<double> {};

TEST_P(SolverCapacitySweep, AllSolversSoundAcrossTightness) {
  const double fraction = GetParam();
  const EpochInstance inst = random_instance(21, 12, 2, fraction);
  Exhaustive exact;
  const auto truth = exact.solve(inst);
  ASSERT_TRUE(truth.feasible);

  SimulatedAnnealing sa({}, 77);
  DynamicProgramming dp;
  WhaleOptimization woa(77);
  Greedy greedy;
  for (auto* solver : std::vector<mvcom::baselines::Solver*>{
           &sa, &dp, &woa, &greedy}) {
    const auto result = solver->solve(inst);
    ASSERT_TRUE(result.feasible) << solver->name();
    EXPECT_TRUE(inst.feasible(result.best)) << solver->name();
    EXPECT_LE(result.utility, truth.utility + 1e-6) << solver->name();
  }
}

INSTANTIATE_TEST_SUITE_P(CapacityFractions, SolverCapacitySweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

}  // namespace
