// Tests for the MVCom problem model (Eq. 1–5) including the NP-hardness
// reduction of Lemma 1: a 0/1-knapsack instance and its MVCom image must
// have identical optima.

#include "mvcom/problem.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "baselines/exhaustive.hpp"

namespace {

using mvcom::baselines::Exhaustive;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;

EpochInstance tiny_instance() {
  // Deadline t = max latency = 1200 (committee 2, the straggler from the
  // paper's Fig. 1 example: latencies 800, 900, 1200, 1000).
  return EpochInstance(
      {
          {0, 100, 800.0},
          {1, 150, 900.0},
          {2, 400, 1200.0},
          {3, 200, 1000.0},
      },
      /*alpha=*/1.5, /*capacity=*/700, /*n_min=*/1);
}

TEST(EpochInstanceTest, DeadlineDerivedFromMaxLatency) {
  const EpochInstance inst = tiny_instance();
  EXPECT_DOUBLE_EQ(inst.deadline(), 1200.0);
}

TEST(EpochInstanceTest, ExplicitDeadlineIsRespected) {
  const EpochInstance inst({{0, 10, 5.0}}, 1.0, 100, 0, 42.0);
  EXPECT_DOUBLE_EQ(inst.deadline(), 42.0);
  EXPECT_DOUBLE_EQ(inst.age(0), 37.0);
}

TEST(EpochInstanceTest, AgeMatchesEq1) {
  const EpochInstance inst = tiny_instance();
  // Π_i = t − l_i for permitted shards (Eq. 1).
  EXPECT_DOUBLE_EQ(inst.age(0), 400.0);
  EXPECT_DOUBLE_EQ(inst.age(1), 300.0);
  EXPECT_DOUBLE_EQ(inst.age(2), 0.0);  // the straggler itself has zero age
  EXPECT_DOUBLE_EQ(inst.age(3), 200.0);
}

TEST(EpochInstanceTest, UtilityMatchesEq2) {
  const EpochInstance inst = tiny_instance();
  const Selection x{1, 0, 1, 0};
  // U = (1.5*100 − 400) + (1.5*400 − 0) = -250 + 600 = 350.
  EXPECT_DOUBLE_EQ(inst.utility(x), 350.0);
  EXPECT_DOUBLE_EQ(inst.utility({0, 0, 0, 0}), 0.0);
}

TEST(EpochInstanceTest, SwapDeltaEqualsUtilityDifference) {
  const EpochInstance inst = tiny_instance();
  const Selection before{1, 1, 0, 0};
  Selection after = before;
  after[0] = 0;
  after[2] = 1;
  EXPECT_NEAR(inst.swap_delta(0, 2), inst.utility(after) - inst.utility(before),
              1e-9);
}

TEST(EpochInstanceTest, StatsAndFeasibility) {
  const EpochInstance inst = tiny_instance();
  const Selection x{1, 1, 1, 0};  // txs = 650 <= 700, chosen = 3
  const auto st = inst.stats(x);
  EXPECT_EQ(st.chosen, 3u);
  EXPECT_EQ(st.txs, 650u);
  EXPECT_TRUE(inst.feasible(x));
  const Selection over{1, 1, 1, 1};  // txs = 850 > 700
  EXPECT_FALSE(inst.feasible(over));
}

TEST(EpochInstanceTest, NminBindsFeasibility) {
  const EpochInstance inst({{0, 10, 1.0}, {1, 10, 2.0}}, 1.0, 100, 2);
  EXPECT_FALSE(inst.feasible({1, 0}));
  EXPECT_TRUE(inst.feasible({1, 1}));
}

TEST(EpochInstanceTest, ValuableDegreeUsesFloorForZeroAge) {
  const EpochInstance inst = tiny_instance();
  // Committee 2 has age 0; with floor 1.0 its term is s/1 = 400.
  const Selection x{0, 0, 1, 0};
  EXPECT_DOUBLE_EQ(inst.valuable_degree(x), 400.0);
  // Committee 0: 100/400 = 0.25.
  EXPECT_DOUBLE_EQ(inst.valuable_degree({1, 0, 0, 0}), 0.25);
}

TEST(EpochInstanceTest, PermittedTxsAndCumulativeAge) {
  const EpochInstance inst = tiny_instance();
  const Selection x{1, 0, 0, 1};
  EXPECT_EQ(inst.permitted_txs(x), 300u);
  EXPECT_DOUBLE_EQ(inst.cumulative_age(x), 600.0);
}

TEST(EpochInstanceTest, FromReportsBridgesWorkload) {
  std::vector<mvcom::txn::ShardReport> reports(2);
  reports[0] = {7, 123, 600.0, 50.0};
  reports[1] = {9, 456, 700.0, 60.0};
  const auto inst = EpochInstance::from_reports(reports, 2.0, 1000, 1);
  ASSERT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst.committees()[0].id, 7u);
  EXPECT_DOUBLE_EQ(inst.committees()[0].latency, 650.0);
  EXPECT_DOUBLE_EQ(inst.deadline(), 760.0);
}

TEST(EpochInstanceTest, RejectsInvalidConstruction) {
  EXPECT_THROW(EpochInstance({}, 1.0, 10, 0), std::invalid_argument);
  EXPECT_THROW(EpochInstance({{0, 1, 1.0}}, 0.0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW(EpochInstance({{0, 1, 1.0}}, -1.0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW(EpochInstance({{0, 1, 1.0}}, std::numeric_limits<double>::quiet_NaN(), 10, 0),
               std::invalid_argument);
}

// --- Lemma 1: the knapsack reduction ----------------------------------------
// BKP-New: value_k = α s_k − (t − l_k), weight_k = s_k, capacity Ĉ, and the
// MVCom instance with J = {1}, N_min = 0 must agree on the optimum.

TEST(NpHardnessReductionTest, KnapsackAndMvcomOptimaCoincide) {
  // A hand-made BKP instance: values/weights below, capacity 10.
  struct Item {
    double value;
    std::uint64_t weight;
  };
  const std::vector<Item> items = {
      {6.0, 4}, {5.0, 3}, {3.0, 2}, {7.0, 5}, {1.0, 1}};
  const std::uint64_t capacity = 10;

  // Brute-force the knapsack optimum.
  double knapsack_best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << items.size()); ++mask) {
    double value = 0.0;
    std::uint64_t weight = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      if (mask & (1u << k)) {
        value += items[k].value;
        weight += items[k].weight;
      }
    }
    if (weight <= capacity) knapsack_best = std::max(knapsack_best, value);
  }

  // Reduction parameters (proof of Lemma 1): choose t and l_k such that
  // α·s_k − (t − l_k) = value_k with s_k = weight_k. Take α = 1, t = 100,
  // l_k = 100 + value_k − s_k.
  std::vector<Committee> committees;
  for (std::size_t k = 0; k < items.size(); ++k) {
    committees.push_back(
        {static_cast<std::uint32_t>(k), items[k].weight,
         100.0 + items[k].value - static_cast<double>(items[k].weight)});
  }
  const EpochInstance mvcom_instance(committees, 1.0, capacity, 0, 100.0);

  Exhaustive exact;
  const auto result = exact.solve(mvcom_instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.utility, knapsack_best, 1e-9);

  // Its fractional relaxation (Dantzig): ratios 5/3 > 6/4 = 3/2 (tie, by
  // index) > 7/5 > 1/1, so items 1, 0, 2 go in whole (weight 9) and one
  // fifth of item 3 fills the last unit: 5 + 6 + 3 + 7/5 = 15.4, above the
  // integral optimum 15 by less than the largest value.
  EXPECT_DOUBLE_EQ(knapsack_best, 15.0);
  EXPECT_NEAR(mvcom::core::fractional_bound(mvcom_instance), 15.4, 1e-9);
}

// --- The fractional-knapsack bound -------------------------------------------

TEST(FractionalBoundTest, EqualsTheOptimumWhenEveryPositiveGainFits) {
  // Gains −250, −75, 600, 100: both positive-gain committees fit Ĉ = 700,
  // so the bound is their sum, which the feasible {2, 3} reaches.
  const EpochInstance inst = tiny_instance();
  EXPECT_DOUBLE_EQ(mvcom::core::fractional_bound(inst), 700.0);
  EXPECT_DOUBLE_EQ(inst.utility({0, 0, 1, 1}), 700.0);
}

TEST(FractionalBoundTest, IgnoresNminWhichOnlyLowersTheOptimum) {
  const EpochInstance free_choice(tiny_instance().committees(), 1.5, 700, 0);
  const EpochInstance forced(tiny_instance().committees(), 1.5, 700, 3);
  EXPECT_DOUBLE_EQ(mvcom::core::fractional_bound(forced),
                   mvcom::core::fractional_bound(free_choice));
  Exhaustive exact;
  const auto best = exact.solve(forced);
  ASSERT_TRUE(best.feasible);
  EXPECT_LT(best.utility, mvcom::core::fractional_bound(forced));
}

TEST(FractionalBoundTest, IsZeroWithoutPositiveGainsOrCapacity) {
  // α = 0.1: gains 10 − 200, 15 − 100, and 0 for the zero-TX straggler
  // that sets the deadline. None is positive.
  const EpochInstance negative({{0, 100, 800.0}, {1, 150, 900.0},
                                {2, 0, 1000.0}},
                               0.1, 10'000, 0);
  EXPECT_DOUBLE_EQ(mvcom::core::fractional_bound(negative), 0.0);
  const EpochInstance starved(tiny_instance().committees(), 1.5, 0, 0);
  EXPECT_DOUBLE_EQ(mvcom::core::fractional_bound(starved), 0.0);
}

TEST(FractionalBoundTest, ZeroTxCommitteeNeitherDividesByZeroNorRaisesIt) {
  // Under the derived deadline a zero-TX committee's gain is −(t − l) ≤ 0.
  std::vector<Committee> with_empty = tiny_instance().committees();
  with_empty.push_back({4, 0, 1100.0});  // gain −100
  with_empty.push_back({5, 0, 1200.0});  // at the deadline: gain 0
  // Ĉ = 500 splits committee 3: committee 2 (gain 600, 400 TXs) fits
  // whole, then half of committee 3's 200 TXs: 600 + 100/2.
  const EpochInstance padded(with_empty, 1.5, 500, 1);
  const EpochInstance reference(tiny_instance().committees(), 1.5, 500, 1);
  const double bound = mvcom::core::fractional_bound(padded);
  EXPECT_TRUE(std::isfinite(bound));
  EXPECT_DOUBLE_EQ(bound, 650.0);
  EXPECT_DOUBLE_EQ(bound, mvcom::core::fractional_bound(reference));
}

TEST(FractionalBoundTest, RelativeGapIsScaledByTheBound) {
  EXPECT_DOUBLE_EQ(mvcom::core::relative_gap(200.0, 190.0), 0.05);
  EXPECT_DOUBLE_EQ(mvcom::core::relative_gap(200.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(mvcom::core::relative_gap(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(mvcom::core::relative_gap(0.0, -5.0)));
}

// Regression: Σ s_i was accumulated in uint64 without a wrap check, so two
// huge shards could make the total (and every downstream prefix sum)
// silently wrap. The sum is now validated at construction.
TEST(OverflowTest, TotalShardSizeOverflowIsRejectedAtConstruction) {
  constexpr std::uint64_t kHalfPlus =
      std::numeric_limits<std::uint64_t>::max() / 2 + 1;
  EXPECT_THROW(EpochInstance({{0, kHalfPlus, 800.0}, {1, kHalfPlus, 900.0}},
                             1.5, 1000, 0),
               std::invalid_argument);
}

TEST(OverflowTest, SingleMaximalShardIsStillAccepted) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const EpochInstance inst({{0, kMax, 800.0}}, 1.5, 1000, 0);
  EXPECT_EQ(inst.total_txs(), kMax);
}

TEST(OverflowTest, TotalTxsTracksTheCommitteeSum) {
  const EpochInstance inst = tiny_instance();
  EXPECT_EQ(inst.total_txs(), 100u + 150u + 400u + 200u);
}

}  // namespace
