// Differential-correctness harness for the SE epoch engine (the gate behind
// the 50k-committee scaling work): 1000 deterministic randomized small
// instances are solved by SE and by the two exact baselines, and the three
// answers are cross-checked.
//
//  * Exhaustive (2^I enumeration) is the ground truth on every instance —
//    varied α, Ĉ, N_min, zero-TX committees, infeasible combinations, and
//    the degenerate t = l_i epoch where every age Π_i is zero.
//  * DynamicProgramming with DpObjective::kUtility and N_min = 0 is exact
//    on an unscaled table, so the two exact baselines must agree on U to
//    the bit, not just to a tolerance.
//  * SE must (a) never emit an infeasible selection, (b) agree with the
//    ground truth on *whether* a solution exists, and (c) land within a
//    small tolerance of the optimum, hitting it exactly on the overwhelming
//    majority of instances. These cold runs keep SeParams::gap_tolerance at
//    0: a certified stop would trade exact optima for time.
//  * The fractional-knapsack bound (core::fractional_bound) and the greedy
//    knapsack walk (core::greedy) bracket the exact optimum on the same
//    family.
//
// One subtlety: the SE solution family maintains cardinalities n ≥ 1. At
// N_min = 0, where the empty selection is feasible and scores 0, SE reports
// it when no non-empty selection fits or the best one scores below 0. Its
// optimum is therefore checked against the reference N'_min = max(N_min, 1)
// where that optimum is not negative, and its feasibility against
// exhaustive search on the instance itself; the exact-baseline bitwise
// check runs at N_min = 0 where DP-U is provably optimal.
//
// The second half is the swap-delta property test: randomized swap
// sequences composed as incremental deltas must equal the from-scratch
// utility to a tight ULP bound — both at the SwapSet level and through the
// scheduler's own bookkeeping across join/leave rebinds.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "baselines/dynamic_programming.hpp"
#include "baselines/exhaustive.hpp"
#include "common/rng.hpp"
#include "mvcom/se_scheduler.hpp"
#include "mvcom/swap_set.hpp"

namespace {

using mvcom::baselines::DpObjective;
using mvcom::baselines::DpParams;
using mvcom::baselines::DynamicProgramming;
using mvcom::baselines::Exhaustive;
using mvcom::common::Rng;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::core::SeParams;
using mvcom::core::SeScheduler;
using mvcom::core::SwapSet;

/// Distance in representable doubles between two finite same-sign-ish
/// values — the natural "bitwise closeness" metric for accumulated swap
/// deltas. Monotone bit trick: map the IEEE-754 ordering onto the integers.
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // covers +0/−0
  const auto key = [](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    return (bits & (std::uint64_t{1} << 63)) != 0
               ? ~bits
               : bits | (std::uint64_t{1} << 63);
  };
  const std::uint64_t ka = key(a);
  const std::uint64_t kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

struct DiffCase {
  std::vector<Committee> committees;
  double alpha = 1.5;
  std::uint64_t capacity = 0;
  std::size_t n_min = 0;
};

/// One randomized small instance. Deliberately adversarial mix: zero-TX
/// committees, capacities from "nothing fits" to "everything fits", N_min
/// from 0 to past |I| (infeasible), and all-equal latencies so every
/// committee sits exactly at the deadline (t = l_i, Π_i = 0).
DiffCase random_case(std::uint64_t seed) {
  Rng rng(seed);
  DiffCase c;
  const std::size_t n = 3 + rng.below(12);  // 3..14 — exhaustive stays honest
  constexpr double kAlphas[] = {0.5, 1.0, 1.5, 3.0};
  c.alpha = kAlphas[rng.below(4)];
  const bool degenerate = rng.below(8) == 0;  // all l_i equal → t = l_i ∀i
  const double shared_latency = 600.0 + rng.uniform(0.0, 900.0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Committee m;
    m.id = static_cast<std::uint32_t>(i);
    m.txs = rng.below(10) == 0 ? 0 : 50 + rng.below(1950);  // zero-TX shards
    m.latency = degenerate ? shared_latency : 600.0 + rng.uniform(0.0, 900.0);
    total += m.txs;
    c.committees.push_back(m);
  }
  // Capacity tiers: starving, binding, loose, non-binding.
  constexpr std::uint64_t kNum[] = {0, 3, 6, 9, 11};
  c.capacity = total * kNum[rng.below(5)] / 10;
  c.n_min = rng.below(n + 3);  // may exceed |I| → genuinely infeasible
  return c;
}

mvcom::core::SeResult solve_se(const EpochInstance& instance,
                               std::uint64_t seed) {
  SeParams params;
  params.threads = 8;  // β=2 chains hill-climb; optimum coverage is Γ-starts
  params.max_iterations = 2000;
  params.convergence_window = params.max_iterations + 1;  // fixed budget
  SeScheduler scheduler(instance, params, seed);
  return scheduler.run();
}

// The acceptance criterion of the scaling PR: 1000 randomized instances,
// zero feasibility violations, SE within tolerance of the exact optimum.
TEST(SeDifferentialTest, ThousandRandomInstancesAgainstExactBaselines) {
  constexpr std::uint64_t kCases = 1000;
  std::size_t feasible_cases = 0;
  std::size_t infeasible_cases = 0;
  std::size_t empty_best_cases = 0;
  std::size_t exact_hits = 0;
  std::size_t near_hits = 0;
  double worst_gap = 0.0;

  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    const DiffCase c = random_case(seed);
    const EpochInstance instance(c.committees, c.alpha, c.capacity, c.n_min);

    // Ground truth over non-empty selections (see the header comment).
    const EpochInstance reference(c.committees, c.alpha, c.capacity,
                                  std::max<std::size_t>(c.n_min, 1));
    Exhaustive exact;
    const auto truth = exact.solve(reference);

    const auto se = solve_se(instance, seed);
    ASSERT_EQ(se.feasible, exact.solve(instance).feasible);
    if (!truth.feasible) {
      // No non-empty selection fits: SE holds the empty one at N_min = 0
      // and nothing otherwise.
      ++infeasible_cases;
      EXPECT_EQ(se.best, c.n_min == 0 ? Selection(instance.size(), 0)
                                      : Selection{});
      continue;
    }
    if (c.n_min == 0 && truth.utility < 0.0) {
      // Every non-empty selection scores below the empty one.
      ++empty_best_cases;
      EXPECT_EQ(se.best, Selection(instance.size(), 0));
      EXPECT_EQ(se.utility, 0.0);
      continue;
    }
    ++feasible_cases;

    // (a) Hard feasibility: the selection SE emits must satisfy Eq. (3)
    // and Eq. (4) of the *original* instance. Zero violations tolerated.
    ASSERT_EQ(se.best.size(), instance.size());
    const auto st = instance.stats(se.best);
    ASSERT_LE(st.txs, instance.capacity());
    ASSERT_GE(st.chosen, instance.n_min());
    ASSERT_GE(st.chosen, std::size_t{1});

    // (b) The reported utility is the selection's true utility.
    EXPECT_LE(ulp_distance(se.utility, instance.utility(se.best)), 16u);

    // (c) Near-optimality. At β = 2 an uphill-only chain can be trapped by
    // adversarial optima whose escape needs a large-downhill move (e.g.
    // packing a negative-gain zero-TX filler to meet N_min), so the bound
    // is two-tier: every case within 10% of the optimum, the overwhelming
    // majority within 2%, and ≥95% exactly optimal.
    const double opt = truth.utility;
    const double gap = opt - se.utility;
    EXPECT_LE(gap, 1e-9 + 0.10 * std::fabs(opt))
        << "SE " << se.utility << " vs optimum " << opt;
    worst_gap = std::max(worst_gap, gap);
    if (gap <= 1e-9 + 0.02 * std::fabs(opt)) ++near_hits;
    if (gap <= 1e-9 + 1e-12 * std::fabs(opt)) ++exact_hits;
  }

  // The mix must actually exercise both regimes, and SE should hit the
  // exact optimum on the overwhelming majority of these small instances.
  EXPECT_GE(feasible_cases, kCases / 2);
  EXPECT_GE(infeasible_cases, kCases / 20);
  EXPECT_GT(empty_best_cases, 0u);
  EXPECT_GE(near_hits, feasible_cases * 99 / 100)
      << "within-2% " << near_hits << "/" << feasible_cases;
  EXPECT_GE(exact_hits, feasible_cases * 95 / 100)
      << "exact " << exact_hits << "/" << feasible_cases
      << ", worst gap " << worst_gap;
}

// The fractional-knapsack bound behind SeParams::gap_tolerance, and the
// greedy that walks the same order (core::greedy), against the exhaustive
// optimum on the same 1000-instance family: greedy ≤ optimum ≤ bound.
// Rounding slack: they sum the same gains in different orders.
TEST(SeDifferentialTest, FractionalBoundBracketsTheExactOptimum) {
  constexpr std::uint64_t kCases = 1000;
  std::size_t all_fit = 0;
  std::size_t nothing_positive = 0;
  std::size_t with_n_min = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    const DiffCase c = random_case(seed);
    const EpochInstance instance(c.committees, c.alpha, c.capacity, c.n_min);
    const EpochInstance free_choice(c.committees, c.alpha, c.capacity, 0);
    const double bound = mvcom::core::fractional_bound(instance);
    ASSERT_TRUE(std::isfinite(bound));
    EXPECT_EQ(bound, mvcom::core::fractional_bound(free_choice));

    double max_gain = 0.0;
    double positive_sum = 0.0;
    std::uint64_t positive_txs = 0;
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const double g = instance.gain(i);
      if (g <= 0.0) continue;
      max_gain = std::max(max_gain, g);
      positive_sum += g;
      positive_txs += instance.committees()[i].txs;
    }
    const double slack = 1e-9 * std::max(1.0, std::fabs(bound));

    // Above every feasible selection's utility, N_min or not.
    Exhaustive exact;
    const auto truth = exact.solve(instance);
    if (truth.feasible) {
      if (c.n_min > 0) ++with_n_min;
      EXPECT_GE(bound, truth.utility - slack);
    }
    // Above the N_min-free optimum by at most one committee's gain: the
    // whole-committee prefix is feasible, the fractional one is ≤ max gain.
    const auto free_truth = exact.solve(free_choice);
    ASSERT_TRUE(free_truth.feasible);  // the empty selection always fits
    EXPECT_GE(bound, free_truth.utility - slack);
    EXPECT_LE(bound, free_truth.utility + max_gain + slack);

    // The shared greedy walks the bound's order: empty or feasible, never
    // empty at N_min = 0, and never above the optimum.
    const Selection greedy = mvcom::core::greedy(instance);
    if (greedy.empty()) {
      EXPECT_GT(c.n_min, 0u);
    } else {
      EXPECT_TRUE(instance.feasible(greedy));
      ASSERT_TRUE(truth.feasible);
      EXPECT_LE(instance.utility(greedy), truth.utility + slack);
    }
    const Selection free_greedy = mvcom::core::greedy(free_choice);
    ASSERT_FALSE(free_greedy.empty());
    EXPECT_TRUE(free_choice.feasible(free_greedy));
    EXPECT_LE(free_choice.utility(free_greedy), free_truth.utility + slack);

    if (positive_txs <= c.capacity) {
      ++all_fit;
      EXPECT_NEAR(bound, free_truth.utility, slack);
      EXPECT_NEAR(bound, positive_sum, slack);
      // Every positive-gain committee fits, so the greedy takes them all.
      EXPECT_NEAR(free_choice.utility(free_greedy), bound, slack);
    }
    if (max_gain == 0.0 || c.capacity == 0) {
      ++nothing_positive;
      EXPECT_EQ(bound, 0.0);
    }
  }
  // Each branch is exercised by the family.
  EXPECT_GE(all_fit, kCases / 10);
  EXPECT_GE(nothing_positive, kCases / 20);
  EXPECT_GE(with_n_min, kCases / 10);
}

// DP with the exact Eq.-(2) objective and an unscaled table is provably
// optimal at N_min = 0 — it must agree with exhaustive enumeration on U to
// the bit (both report instance.utility() of an optimal selection; ties
// between distinct optima are measure-zero under continuous latencies).
TEST(SeDifferentialTest, ExactBaselinesAgreeBitwise) {
  constexpr std::uint64_t kCases = 200;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    DiffCase c = random_case(seed);
    c.n_min = 0;  // DP-U's exactness precondition
    const EpochInstance instance(c.committees, c.alpha, c.capacity, 0);
    ASSERT_LE(instance.capacity(), mvcom::baselines::kDpMaxBuckets)
        << "capacity must stay below the FPTAS rounding threshold";

    Exhaustive exact;
    DynamicProgramming dp_u(DpParams{.objective = DpObjective::kUtility});
    const auto a = exact.solve(instance);
    const auto b = dp_u.solve(instance);
    ASSERT_EQ(a.feasible, b.feasible);
    if (!a.feasible) continue;
    // Bitwise agreement: compare the representations, not a tolerance.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.utility),
              std::bit_cast<std::uint64_t>(b.utility))
        << "exhaustive " << a.utility << " vs DP-U " << b.utility;
  }
}

// Satellite property: composing random swap deltas incrementally must match
// the from-scratch utility to a tight ULP bound. 100 instances × 300 swaps.
TEST(SeDifferentialTest, SwapDeltaCompositionMatchesRecompute) {
  constexpr std::size_t kInstances = 100;
  constexpr std::size_t kSwaps = 300;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    const std::size_t n = 32 + rng.below(64);
    std::vector<Committee> committees;
    for (std::size_t i = 0; i < n; ++i) {
      committees.push_back({static_cast<std::uint32_t>(i),
                            50 + rng.below(1950),
                            600.0 + rng.uniform(0.0, 900.0)});
    }
    const EpochInstance instance(committees, 1.5, ~std::uint64_t{0} >> 1, 0);

    Selection x(n, 0);
    for (std::size_t i = 0; i < n / 2; ++i) x[i] = 1;
    SwapSet set(x);
    double utility = instance.utility(x);
    for (std::size_t s = 0; s < kSwaps; ++s) {
      const std::uint32_t p = set.sample_selected_position(rng);
      const std::uint32_t q = set.sample_unselected_position(rng);
      utility += instance.swap_delta(set.at(p), set.at(q));
      set.swap_positions(p, q);
    }
    Selection final_x(n, 0);
    set.write_selection(final_x);
    const double scratch = instance.utility(final_x);
    EXPECT_LE(ulp_distance(utility, scratch), 512u)
        << "incremental " << utility << " vs from-scratch " << scratch;
  }
}

// The same invariant through the scheduler's own bookkeeping, across
// join/leave rebinds: the utility SE carried incrementally through every
// accepted swap and every Fig.-7 rebind translation must match a
// from-scratch recomputation of the selection it reports.
TEST(SeDifferentialTest, IncrementalUtilitySurvivesJoinLeaveRebinds) {
  Rng rng(424242);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    Committee c{static_cast<std::uint32_t>(i), 500 + rng.below(1500),
                600.0 + rng.uniform(0.0, 900.0)};
    total += c.txs;
    committees.push_back(c);
  }
  const EpochInstance instance(committees, 1.5, (total * 7) / 10, 3);

  SeParams params;
  params.threads = 3;
  params.share_interval = 25;
  SeScheduler scheduler(instance, params, 9);
  std::uint32_t next_id = 5000;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    scheduler.advance(40);
    if (round % 4 == 0) {
      scheduler.add_committee(
          {next_id++, 500 + rng.below(1500), 600.0 + rng.uniform(0.0, 900.0)});
    } else if (round % 4 == 2 && scheduler.instance().size() > 8) {
      // Prefer evicting a selected committee so the rebind really has to
      // translate live solutions, not just shrink the index space.
      const Selection x = scheduler.current_selection();
      std::uint32_t victim = scheduler.instance().committees().front().id;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i]) {
          victim = scheduler.instance().committees()[i].id;
          break;
        }
      }
      scheduler.remove_committee(victim);
    }
    const double tracked = scheduler.current_utility();
    const Selection x = scheduler.current_selection();
    ASSERT_EQ(std::isnan(tracked), x.empty());
    if (x.empty()) continue;
    const double scratch = scheduler.instance().utility(x);
    EXPECT_LE(ulp_distance(tracked, scratch), 512u)
        << "tracked " << tracked << " vs from-scratch " << scratch;
  }
}

}  // namespace
