// Tests for the closed-form theory (Theorem 1, Remark 1/2) and the exact
// Markov-chain analysis (Lemma 3 via Gillespie, Lemma 4, Theorem 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/markov.hpp"
#include "analysis/theory.hpp"
#include "common/rng.hpp"

namespace {

using mvcom::analysis::enumerate_full_space;
using mvcom::analysis::enumerate_space;
using mvcom::analysis::failure_perturbation;
using mvcom::analysis::log_sum_exp_optimality_loss;
using mvcom::analysis::mixing_time_bounds;
using mvcom::analysis::simulate_occupancy;
using mvcom::analysis::stationary_distribution;
using mvcom::analysis::total_variation;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;

EpochInstance small_instance(std::uint64_t seed = 1, std::size_t n = 8) {
  mvcom::common::Rng rng(seed);
  std::vector<Committee> committees;
  for (std::size_t i = 0; i < n; ++i) {
    // Small utilities keep exp(βU) well-conditioned for exact comparison.
    committees.push_back({static_cast<std::uint32_t>(i), 2 + rng.below(6),
                          rng.uniform(0.0, 4.0)});
  }
  return EpochInstance(std::move(committees), 1.0, 10'000, 0);
}

// --- Theorem 1 ---------------------------------------------------------------

TEST(TheoremOneTest, LowerBoundBelowUpperBound) {
  for (const std::size_t I : {10u, 50u, 200u}) {
    const auto bounds = mixing_time_bounds(I, 2.0, 0.0, 100.0, 0.01);
    EXPECT_LT(bounds.log_lower, bounds.log_upper) << "I=" << I;
  }
}

TEST(TheoremOneTest, UpperBoundGrowsWithCommittees) {
  // Remark 2: the upper bound scales as O(4^|I|).
  const auto small = mixing_time_bounds(10, 2.0, 0.0, 50.0, 0.01);
  const auto large = mixing_time_bounds(20, 2.0, 0.0, 50.0, 0.01);
  EXPECT_GT(large.log_upper, small.log_upper + 9.0 * std::log(4.0));
}

TEST(TheoremOneTest, UpperBoundGrowsWithBeta) {
  // Remark 2: β → ∞ makes convergence arbitrarily slow.
  const auto lo = mixing_time_bounds(20, 1.0, 0.0, 50.0, 0.01);
  const auto hi = mixing_time_bounds(20, 4.0, 0.0, 50.0, 0.01);
  EXPECT_GT(hi.log_upper, lo.log_upper);
}

TEST(TheoremOneTest, TighterEpsilonCostsMoreTime) {
  const auto loose = mixing_time_bounds(20, 2.0, 0.0, 50.0, 0.1);
  const auto tight = mixing_time_bounds(20, 2.0, 0.0, 50.0, 0.001);
  EXPECT_GT(tight.log_upper, loose.log_upper);
  EXPECT_GT(tight.log_lower, loose.log_lower);
}

TEST(TheoremOneTest, RejectsOutOfRangeInputs) {
  // Each case breaks one precondition of Eq. (12)/(13); NaN breaks it too.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)mixing_time_bounds(1, 2.0, 0.0, 50.0, 0.01),
               std::invalid_argument);
  EXPECT_THROW((void)mixing_time_bounds(0, 2.0, 0.0, 50.0, 0.01),
               std::invalid_argument);
  for (const double beta : {0.0, -1.0, kNaN}) {
    EXPECT_THROW((void)mixing_time_bounds(20, beta, 0.0, 50.0, 0.01),
                 std::invalid_argument)
        << "beta " << beta;
    EXPECT_THROW((void)log_sum_exp_optimality_loss(20, beta),
                 std::invalid_argument)
        << "beta " << beta;
  }
  for (const double spread : {-1.0, kNaN}) {
    EXPECT_THROW((void)mixing_time_bounds(20, 2.0, 0.0, spread, 0.01),
                 std::invalid_argument)
        << "spread " << spread;
  }
  for (const double epsilon : {0.0, -0.1, 0.5, 0.7, kNaN}) {
    EXPECT_THROW((void)mixing_time_bounds(20, 2.0, 0.0, 50.0, epsilon),
                 std::invalid_argument)
        << "epsilon " << epsilon;
  }
  // The edges that stay inside: two committees, a zero spread.
  const auto edge = mixing_time_bounds(2, 2.0, 0.0, 0.0, 0.49);
  EXPECT_TRUE(std::isfinite(edge.log_lower));
  EXPECT_TRUE(std::isfinite(edge.log_upper));
}

TEST(RemarkOneTest, OptimalityLossFormula) {
  // (1/β) log|F| with |F| = 2^|I|.
  EXPECT_NEAR(log_sum_exp_optimality_loss(10, 2.0), 10.0 * std::log(2.0) / 2.0,
              1e-12);
  // β → ∞ drives the loss to 0.
  EXPECT_LT(log_sum_exp_optimality_loss(10, 100.0),
            log_sum_exp_optimality_loss(10, 1.0));
}

// --- state-space enumeration and Eq. (6) -------------------------------------

TEST(MarkovSpaceTest, EnumerationCountsBinomials) {
  const EpochInstance inst = small_instance(2, 6);
  // Capacity is slack, so every cardinality-n subset is feasible: C(6,n).
  EXPECT_EQ(enumerate_space(inst, 0).states.size(), 1u);
  EXPECT_EQ(enumerate_space(inst, 1).states.size(), 6u);
  EXPECT_EQ(enumerate_space(inst, 2).states.size(), 15u);
  EXPECT_EQ(enumerate_space(inst, 3).states.size(), 20u);
  EXPECT_EQ(enumerate_full_space(inst).states.size(), 64u);
}

TEST(MarkovSpaceTest, CapacityPrunesStates) {
  std::vector<Committee> committees{{0, 5, 1.0}, {1, 5, 2.0}, {2, 5, 3.0}};
  const EpochInstance inst(committees, 1.0, 11, 0);  // any two fit, three don't
  EXPECT_EQ(enumerate_space(inst, 2).states.size(), 3u);
  EXPECT_EQ(enumerate_space(inst, 3).states.size(), 0u);
}

TEST(StationaryDistributionTest, SumsToOneAndOrdersByUtility) {
  const EpochInstance inst = small_instance(3, 8);
  const auto space = enumerate_space(inst, 4);
  const auto p = stationary_distribution(space, 2.0);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Eq. (6): higher-utility states carry more probability.
  for (std::size_t a = 0; a < space.states.size(); ++a) {
    for (std::size_t b = a + 1; b < space.states.size(); ++b) {
      if (space.utilities[a] > space.utilities[b] + 1e-9) {
        EXPECT_GT(p[a], p[b]);
      }
    }
  }
}

TEST(DetailedBalanceTest, GillespieOccupancyMatchesEq6) {
  // Lemma 3's consequence: the CTMC with Eq.-(7) rates is time-reversible
  // with stationary distribution Eq. (6). Simulate and compare in TV.
  const EpochInstance inst = small_instance(4, 7);
  const auto space = enumerate_space(inst, 3);
  const auto p_star = stationary_distribution(space, 1.0);
  mvcom::common::Rng rng(5);
  const auto occupancy = simulate_occupancy(space, 1.0, 0.0, 400'000, rng);
  EXPECT_LT(total_variation(p_star, occupancy), 0.02);
}

TEST(DetailedBalanceTest, HoldsAcrossBetas) {
  const EpochInstance inst = small_instance(6, 6);
  const auto space = enumerate_space(inst, 3);
  for (const double beta : {0.5, 1.0, 2.0}) {
    const auto p_star = stationary_distribution(space, beta);
    mvcom::common::Rng rng(7);
    const auto occupancy =
        simulate_occupancy(space, beta, 0.0, 300'000, rng);
    EXPECT_LT(total_variation(p_star, occupancy), 0.03) << "beta " << beta;
  }
}

TEST(RemarkOneTest, GibbsExpectationWithinOptimalityLossBound) {
  // Remark 1: time-sharing solutions per Eq. (6) loses at most (1/β)·log|F|
  // against the optimum — i.e. E_{p*}[U] >= U_max − (1/β)·log|F|. Verified
  // exactly on enumerated spaces across β.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const EpochInstance inst = small_instance(seed, 8);
    const auto space = enumerate_full_space(inst);
    const double u_max =
        *std::max_element(space.utilities.begin(), space.utilities.end());
    for (const double beta : {0.5, 1.0, 2.0, 8.0}) {
      const auto p = stationary_distribution(space, beta);
      double expected = 0.0;
      for (std::size_t s = 0; s < p.size(); ++s) {
        expected += p[s] * space.utilities[s];
      }
      const double loss = log_sum_exp_optimality_loss(8, beta);
      EXPECT_GE(expected, u_max - loss - 1e-9)
          << "seed " << seed << " beta " << beta;
      EXPECT_LE(expected, u_max + 1e-9);
    }
  }
}

TEST(RemarkOneTest, LargerBetaConcentratesOnTheOptimum) {
  const EpochInstance inst = small_instance(5, 8);
  const auto space = enumerate_full_space(inst);
  const double u_max =
      *std::max_element(space.utilities.begin(), space.utilities.end());
  double prev_expected = -1e300;
  for (const double beta : {0.25, 1.0, 4.0, 16.0}) {
    const auto p = stationary_distribution(space, beta);
    double expected = 0.0;
    for (std::size_t s = 0; s < p.size(); ++s) {
      expected += p[s] * space.utilities[s];
    }
    EXPECT_GE(expected, prev_expected - 1e-9) << "beta " << beta;
    prev_expected = expected;
  }
  EXPECT_NEAR(prev_expected, u_max, 0.05 * std::abs(u_max) + 1.0);
}

// --- Lemma 4 / Theorem 2 ------------------------------------------------------

TEST(FailureTest, TrimmedFractionIsExactlyHalf) {
  // |F\G| / |F| = 2^{|I|-1} / 2^|I| = 1/2 (Lemma 4's counting step).
  const EpochInstance inst = small_instance(8, 8);
  const auto space = enumerate_full_space(inst);
  const auto perturbation = failure_perturbation(space, 2.0, 3);
  EXPECT_DOUBLE_EQ(perturbation.trimmed_fraction, 0.5);
}

TEST(FailureTest, TvDistanceBoundedByHalf) {
  // Lemma 4: d_TV(q*, q̃) <= 1/2, for every failed committee.
  const EpochInstance inst = small_instance(9, 8);
  const auto space = enumerate_full_space(inst);
  for (std::uint32_t failed = 0; failed < 8; ++failed) {
    const auto perturbation = failure_perturbation(space, 2.0, failed);
    EXPECT_LE(perturbation.tv_distance, 0.5 + 1e-12) << "failed " << failed;
    EXPECT_GE(perturbation.tv_distance, 0.0);
  }
}

TEST(FailureTest, UtilityShiftBoundedByTheorem2) {
  // Theorem 2: |q*uᵀ − q̃uᵀ| <= max_{g∈G} U_g.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EpochInstance inst = small_instance(seed, 8);
    const auto space = enumerate_full_space(inst);
    for (std::uint32_t failed = 0; failed < 8; failed += 3) {
      const auto p = failure_perturbation(space, 2.0, failed);
      EXPECT_LE(p.utility_shift, p.max_trimmed_utility + 1e-9)
          << "seed " << seed << " failed " << failed;
    }
  }
}

TEST(FailureTest, LargeBetaShrinksPerturbationWhenOptimumSurvives) {
  // When the best solution avoids the failed committee, large β concentrates
  // both q* and q̃ on it, so the perturbation vanishes. With deadline 10,
  // gains are 91, −3, −1, −9: the optimum {0} excludes committee 3.
  std::vector<Committee> committees{
      {0, 100, 1.0}, {1, 5, 2.0}, {2, 6, 3.0}, {3, 1, 0.0}};
  const EpochInstance inst(committees, 1.0, 1000, 0, 10.0);
  const auto space = enumerate_full_space(inst);
  const auto weak = failure_perturbation(space, 0.05, 3);
  const auto strong = failure_perturbation(space, 2.0, 3);
  EXPECT_LT(strong.tv_distance, weak.tv_distance);
}

}  // namespace
