// Tests for the SE scheduler (Alg. 1–3): feasibility invariants,
// near-optimality against exhaustive ground truth, the Γ-threads effect,
// the certified stop against the fractional-knapsack bound, and online
// join/leave dynamics.

#include "mvcom/se_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/exhaustive.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace {

using mvcom::baselines::Exhaustive;
using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::core::SeParams;
using mvcom::core::SeResult;
using mvcom::core::SeScheduler;
using mvcom::core::SwapSet;

/// Random instance small enough for exhaustive ground truth.
EpochInstance random_instance(std::uint64_t seed, std::size_t n = 12,
                              std::size_t n_min = 3) {
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
  // Capacity ~70% of the total: the knapsack genuinely binds.
  return EpochInstance(std::move(committees), 1.5, (total * 7) / 10, n_min);
}

SeParams quick_params(std::size_t threads = 2) {
  SeParams p;
  p.threads = threads;
  p.max_iterations = 3000;
  p.convergence_window = 400;
  return p;
}

TEST(SeSchedulerTest, ResultIsAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EpochInstance inst = random_instance(seed);
    SeScheduler scheduler(inst, quick_params(), seed);
    const SeResult result = scheduler.run();
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_TRUE(inst.feasible(result.best)) << "seed " << seed;
    EXPECT_NEAR(inst.utility(result.best), result.utility, 1e-6);
  }
}

TEST(SeSchedulerTest, ConvergesNearExhaustiveOptimum) {
  // Remark 1 bounds the approximation loss by (1/β)log|F|; on these small
  // instances the converged SE solution should be within a few percent of
  // the exact optimum (and usually exact).
  Exhaustive exact;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const EpochInstance inst = random_instance(seed);
    const auto truth = exact.solve(inst);
    ASSERT_TRUE(truth.feasible);
    SeScheduler scheduler(inst, quick_params(4), seed * 17);
    const SeResult result = scheduler.run();
    ASSERT_TRUE(result.feasible);
    EXPECT_LE(result.utility, truth.utility + 1e-6) << "seed " << seed;
    EXPECT_GE(result.utility, 0.93 * truth.utility)
        << "seed " << seed << ": SE " << result.utility << " vs optimum "
        << truth.utility;
  }
}

TEST(SeSchedulerTest, UtilityTraceReachesConvergence) {
  const EpochInstance inst = random_instance(3);
  SeScheduler scheduler(inst, quick_params(), 99);
  const SeResult result = scheduler.run();
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.utility_trace.empty());
  // The trace's maximum equals the reported converged utility.
  double max_seen = -1e300;
  for (const double u : result.utility_trace) {
    if (!std::isnan(u)) max_seen = std::max(max_seen, u);
  }
  EXPECT_NEAR(max_seen, result.utility, 1e-9);
}

TEST(SeSchedulerTest, SelectionsRespectCapacityThroughoutTheRun) {
  const EpochInstance inst = random_instance(4);
  SeScheduler scheduler(inst, quick_params(1), 5);
  for (int it = 0; it < 500; ++it) {
    scheduler.step();
    if (it % 50 == 0) {
      const Selection x = scheduler.current_selection();
      if (x.empty()) continue;
      const auto st = inst.stats(x);
      ASSERT_LE(st.txs, inst.capacity()) << "iteration " << it;
      ASSERT_GE(st.chosen, inst.n_min()) << "iteration " << it;
    }
  }
}

TEST(SeSchedulerTest, MoreThreadsConvergeAtLeastAsWell) {
  // Fig. 8's qualitative claim: larger Γ converges to at least as good a
  // utility. Averaged over seeds to damp noise.
  double single = 0.0;
  double multi = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EpochInstance inst = random_instance(seed, 14);
    SeParams p1 = quick_params(1);
    p1.max_iterations = 800;
    p1.convergence_window = 900;  // never early-stop: fixed budget
    SeParams p8 = p1;
    p8.threads = 8;
    SeScheduler s1(inst, p1, seed);
    SeScheduler s8(inst, p8, seed);
    single += s1.run().utility;
    multi += s8.run().utility;
  }
  EXPECT_GE(multi, single);
}

TEST(SeSchedulerTest, InfeasibleNminYieldsNoSolution) {
  // N_min = |I| but the full set exceeds capacity: no feasible selection.
  std::vector<Committee> committees{{0, 100, 1.0}, {1, 100, 2.0}};
  const EpochInstance inst(committees, 1.0, 150, 2);
  SeScheduler scheduler(inst, quick_params(), 1);
  const SeResult result = scheduler.run();
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.best.empty());
}

TEST(SeSchedulerTest, EmptySelectionIsFeasibleAtZeroNmin) {
  // Ĉ lies below every shard, so no chain is active; at N_min = 0 the
  // empty selection still satisfies Eq. (3)/(4), as exhaustive search says.
  const std::vector<Committee> committees{
      {0, 100, 1.0}, {1, 100, 2.0}, {2, 300, 5.0}};
  const EpochInstance inst(committees, 1.5, 50, 0);
  const auto exact = Exhaustive().solve(inst);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(exact.best, Selection(3, 0));
  for (const std::size_t iterations : {0u, 200u}) {
    SeParams params = quick_params();
    params.max_iterations = iterations;
    SeScheduler scheduler(inst, params, 1);
    const SeResult result = scheduler.run();
    ASSERT_TRUE(result.feasible) << iterations << " iterations";
    EXPECT_EQ(result.best, exact.best);
    EXPECT_EQ(result.utility, 0.0);
    EXPECT_EQ(result.valuable_degree, 0.0);
  }
}

TEST(SeSchedulerTest, ZeroIterationsReportTheChainsAlg2Built) {
  // With no iteration and no warm-start floor, run() still holds the
  // feasible chains the constructor built and reports their best.
  const EpochInstance inst = random_instance(2);
  SeParams params = quick_params(4);
  params.max_iterations = 0;
  SeScheduler scheduler(inst, params, 7);
  const SeResult result = scheduler.run();
  EXPECT_EQ(result.iterations, 0u);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(inst.feasible(result.best));
  EXPECT_EQ(result.best, scheduler.current_selection());
  EXPECT_EQ(result.utility, scheduler.current_utility());
  EXPECT_NEAR(inst.utility(result.best), result.utility, 1e-6);

  // An instance with no feasible selection stays infeasible.
  const std::vector<Committee> committees{{0, 100, 1.0}, {1, 100, 2.0}};
  SeScheduler none(EpochInstance(committees, 1.0, 150, 2), params, 1);
  EXPECT_FALSE(none.run().feasible);
}

TEST(SeSchedulerTest, FullSetSolutionUsedWhenCapacityAllows) {
  // Everything fits: the optimum (all positive gains) is the full set,
  // which only exists via the static f_|I| solution of Alg. 1 line 25.
  std::vector<Committee> committees;
  for (std::uint32_t i = 0; i < 6; ++i) {
    committees.push_back({i, 100, 500.0 + i});
  }
  const EpochInstance inst(committees, 10.0, 10'000, 0);
  SeScheduler scheduler(inst, quick_params(), 2);
  const SeResult result = scheduler.run();
  ASSERT_TRUE(result.feasible);
  for (const auto bit : result.best) EXPECT_EQ(bit, 1);
}

TEST(SeSchedulerTest, RejectsInvalidParams) {
  const EpochInstance inst = random_instance(1);
  SeParams no_threads;
  no_threads.threads = 0;
  EXPECT_THROW(SeScheduler(inst, no_threads, 1), std::invalid_argument);
  SeParams bad_beta;
  bad_beta.beta = 0.0;
  EXPECT_THROW(SeScheduler(inst, bad_beta, 1), std::invalid_argument);
  bad_beta.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SeScheduler(inst, bad_beta, 1), std::invalid_argument);
  // One family slot leaves no stride over the admissible cardinalities.
  SeParams one_slot;
  one_slot.max_family = 1;
  EXPECT_THROW(SeScheduler(inst, one_slot, 1), std::invalid_argument);
  one_slot.max_family = 2;
  EXPECT_NO_THROW(SeScheduler(inst, one_slot, 1));
}

// SE's chains store committee indices in 16 bits, so the universe is capped
// at SwapSet::kMaxUniverse. max_family = 2 keeps the 65k-committee
// schedulers cheap to build.
TEST(SeSchedulerTest, RejectsUniversesAboveTheSwapSetCap) {
  const auto make = [](std::size_t n) {
    std::vector<Committee> committees;
    committees.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      committees.push_back({static_cast<std::uint32_t>(i), 10, 600.0});
    }
    return EpochInstance(std::move(committees), 1.5, 1000, 0);
  };
  SeParams params;
  params.threads = 1;
  params.max_family = 2;
  EXPECT_THROW(SeScheduler(make(SwapSet::kMaxUniverse + 1), params, 1),
               std::invalid_argument);

  SeScheduler full(make(SwapSet::kMaxUniverse), params, 1);
  const Committee joiner{999'999, 10, 600.0};
  EXPECT_THROW(full.add_committee(joiner), std::invalid_argument);
  // The refused join left the scheduler as it was, and usable.
  EXPECT_EQ(full.instance().size(), SwapSet::kMaxUniverse);
  full.advance(5);
  const Selection x = full.current_selection();
  ASSERT_FALSE(x.empty());
  EXPECT_TRUE(full.instance().feasible(x));
  // After a leave the join fits again.
  full.remove_committee(0);
  full.add_committee(joiner);
  EXPECT_EQ(full.instance().size(), SwapSet::kMaxUniverse);
  EXPECT_EQ(full.instance().committees().back().id, joiner.id);
}

/// Sum of the three mvcom_se_transitions_total series.
std::uint64_t exported_transitions(mvcom::obs::MetricsRegistry& registry) {
  std::uint64_t total = 0;
  for (const char* result : {"accept", "reject", "infeasible"}) {
    total += registry
                 .counter("mvcom_se_transitions_total", "",
                          {{"result", result}})
                 .value();
  }
  return total;
}

// A sink attached after detached stepping sees only the later transitions:
// the same run attached from the start exports exactly that many more.
TEST(SeSchedulerTest, LateSetObsExportsOnlyLaterTransitions) {
  const EpochInstance inst = random_instance(5, 50, 0);
  const SeParams params = quick_params(1);
  mvcom::obs::MetricsRegistry late_registry;
  SeScheduler late(inst, params, 11);
  late.advance(1000);
  late.set_obs(mvcom::obs::ObsContext(&late_registry, nullptr));
  late.advance(10);

  mvcom::obs::MetricsRegistry early_registry;
  SeScheduler early(inst, params, 11);
  early.set_obs(mvcom::obs::ObsContext(&early_registry, nullptr));
  early.advance(1000);
  const std::uint64_t before = exported_transitions(early_registry);
  early.advance(10);

  EXPECT_EQ(late_registry.counter("mvcom_se_iterations_total").value(), 10u);
  EXPECT_GT(exported_transitions(late_registry), 0u);
  EXPECT_EQ(exported_transitions(late_registry),
            exported_transitions(early_registry) - before);
}

// --- Certified stop (SeParams::gap_tolerance) --------------------------------

/// A serve-like instance: many committees, Ĉ = 60 % of the TXs, so the
/// greedy seed lands within a fraction of a percent of the bound.
EpochInstance serve_like_instance(std::size_t n_min = 0) {
  mvcom::common::Rng rng(2021);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 120; ++i) {
    committees.push_back(
        {i, 2000 + rng.below(12000), rng.uniform(0.0, 800.0)});
    total += committees.back().txs;
  }
  return EpochInstance(std::move(committees), 1.5, total * 6 / 10, n_min);
}

/// Descending-gain fill under Ĉ (the serve pipeline's warm seed).
Selection greedy_seed(const EpochInstance& inst) {
  std::vector<std::size_t> order(inst.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return inst.gain(a) != inst.gain(b) ? inst.gain(a) > inst.gain(b) : a < b;
  });
  Selection seed(inst.size(), 0);
  std::uint64_t used = 0;
  for (const std::size_t i : order) {
    const std::uint64_t txs = inst.committees()[i].txs;
    if (inst.gain(i) <= 0.0 || used + txs > inst.capacity()) continue;
    seed[i] = 1;
    used += txs;
  }
  return seed;
}

constexpr double kServeTolerance = 0.01;

SeParams certifying_params(double tolerance) {
  SeParams p = quick_params(4);
  p.max_iterations = 600;
  p.convergence_window = 300;
  p.share_interval = 50;
  p.gap_tolerance = tolerance;
  return p;
}

TEST(SeCertifiedStopTest, CertifiedWarmRunReturnsTheFloorBitwise) {
  const EpochInstance inst = serve_like_instance();
  const Selection seed = greedy_seed(inst);
  SeScheduler scheduler(inst, certifying_params(kServeTolerance), 7);
  mvcom::obs::MetricsRegistry registry;
  scheduler.set_obs(mvcom::obs::ObsContext(&registry, nullptr));
  const double floor = scheduler.warm_start(seed);
  ASSERT_FALSE(std::isnan(floor));
  const double bound = mvcom::core::fractional_bound(inst);
  ASSERT_LE(mvcom::core::relative_gap(bound, floor), kServeTolerance)
      << "precondition: the greedy seed must certify";

  const SeResult result = scheduler.run();
  EXPECT_TRUE(result.certified);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_TRUE(result.utility_trace.empty());
  EXPECT_EQ(result.best, seed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.utility),
            std::bit_cast<std::uint64_t>(floor));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.valuable_degree),
            std::bit_cast<std::uint64_t>(inst.valuable_degree(seed)));
  EXPECT_EQ(result.bound, bound);
  EXPECT_EQ(scheduler.iteration(), 0u);
  EXPECT_EQ(registry.counter("mvcom_se_iterations_total").value(), 0u);
}

TEST(SeCertifiedStopTest, ToleranceZeroNeverCertifies) {
  const EpochInstance inst = serve_like_instance();
  SeScheduler scheduler(inst, certifying_params(0.0), 7);
  ASSERT_FALSE(std::isnan(scheduler.warm_start(greedy_seed(inst))));
  const SeResult result = scheduler.run();
  EXPECT_FALSE(result.certified);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_EQ(result.bound, mvcom::core::fractional_bound(inst));
}

/// Bitwise equality of two schedulers' observable state.
void expect_same_state(const SeScheduler& a, const SeScheduler& b) {
  EXPECT_EQ(a.iteration(), b.iteration());
  EXPECT_EQ(a.current_selection(), b.current_selection());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.current_utility()),
            std::bit_cast<std::uint64_t>(b.current_utility()));
}

// A certified warm start adopts its seed like any other, so a certified
// scheduler that is read, stepped or mutated stays bitwise equal to a
// tolerance-0 one.
TEST(SeCertifiedStopTest, LaterCallsMatchAToleranceZeroScheduler) {
  const EpochInstance inst = serve_like_instance(4);
  const Selection seed = greedy_seed(inst);
  ASSERT_GE(std::count(seed.begin(), seed.end(), 1), 4);
  const std::uint32_t member = inst.committees()[static_cast<std::size_t>(
      std::find(seed.begin(), seed.end(), 1) - seed.begin())].id;
  using Call = void (*)(SeScheduler&, std::uint32_t);
  const std::vector<std::pair<const char*, Call>> calls = {
      {"accessors", [](SeScheduler&, std::uint32_t) {}},
      {"advance", [](SeScheduler& s, std::uint32_t) { s.advance(70); }},
      {"step", [](SeScheduler& s, std::uint32_t) { s.step(); }},
      {"add_committee",
       [](SeScheduler& s, std::uint32_t) {
         s.add_committee({9000, 5000, 100.0});
       }},
      {"remove_committee",
       [](SeScheduler& s, std::uint32_t id) { s.remove_committee(id); }},
      {"set_n_min", [](SeScheduler& s, std::uint32_t) { s.set_n_min(9); }},
  };
  for (const auto& [name, call] : calls) {
    SCOPED_TRACE(name);
    SeScheduler certified(inst, certifying_params(kServeTolerance), 11);
    SeScheduler reference(inst, certifying_params(0.0), 11);
    const double floor = certified.warm_start(seed);
    ASSERT_LE(mvcom::core::relative_gap(mvcom::core::fractional_bound(inst),
                                        floor),
              kServeTolerance);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.warm_start(seed)),
              std::bit_cast<std::uint64_t>(floor));
    call(certified, member);
    call(reference, member);
    expect_same_state(certified, reference);
    // The whole explorer state matched, not just the incumbent: the two
    // keep stepping in lockstep.
    certified.advance(60);
    reference.advance(60);
    expect_same_state(certified, reference);
  }
}

TEST(SeCertifiedStopTest, CertifiedWarmStartAfterSteppingStillAdoptsTheSeed) {
  // After stepping too, a certified warm_start adopts its seed like any
  // other, so later steps match a tolerance-0 scheduler.
  const EpochInstance inst = serve_like_instance();
  const Selection seed = greedy_seed(inst);
  SeScheduler certified(inst, certifying_params(kServeTolerance), 13);
  SeScheduler reference(inst, certifying_params(0.0), 13);
  certified.advance(20);
  reference.advance(20);
  const double floor = certified.warm_start(seed);
  ASSERT_LE(mvcom::core::relative_gap(mvcom::core::fractional_bound(inst),
                                      floor),
            kServeTolerance);
  (void)reference.warm_start(seed);
  expect_same_state(certified, reference);
  certified.advance(60);
  reference.advance(60);
  expect_same_state(certified, reference);
  EXPECT_EQ(certified.run().iterations, 0u);  // the floor still certifies
}

// The documented trade: on Lemma 1's knapsack image (values 6, 5, 3, 7, 1,
// weights 4, 3, 2, 5, 1, Ĉ = 10; fractional bound 15.4) the seed {0, 1, 2}
// is worth 14 and the optimum 15. The gap 1.4/15.4 ≈ 9 % is inside a 10 %
// tolerance, so the certified run keeps the seed while a tolerance-0 run
// finds the optimum.
TEST(SeCertifiedStopTest, CertifiedRunKeepsASeedSeBeatsByLessThanEpsilon) {
  const double values[] = {6.0, 5.0, 3.0, 7.0, 1.0};
  const std::uint64_t weights[] = {4, 3, 2, 5, 1};
  std::vector<Committee> committees;
  for (std::uint32_t k = 0; k < 5; ++k) {
    committees.push_back({k, weights[k],
                          100.0 + values[k] - static_cast<double>(weights[k])});
  }
  const EpochInstance inst(committees, 1.0, 10, 0, 100.0);
  const Selection seed = {1, 1, 1, 0, 0};
  constexpr double kTolerance = 0.1;

  SeScheduler certified(inst, certifying_params(kTolerance), 3);
  ASSERT_NEAR(certified.warm_start(seed), 14.0, 1e-9);
  ASSERT_NEAR(mvcom::core::fractional_bound(inst), 15.4, 1e-9);
  const SeResult kept = certified.run();
  EXPECT_TRUE(kept.certified);
  EXPECT_EQ(kept.iterations, 0u);
  EXPECT_EQ(kept.best, seed);

  SeScheduler explored(inst, certifying_params(0.0), 3);
  (void)explored.warm_start(seed);
  const SeResult best = explored.run();
  EXPECT_FALSE(best.certified);
  EXPECT_NEAR(best.utility, 15.0, 1e-9);
  EXPECT_GT(best.utility, kept.utility);
  EXPECT_LE(best.utility - kept.utility, kTolerance * kept.bound);
}

TEST(SeCertifiedStopTest, ColdRunStopsAtTheFirstCertifiedBlockBoundary) {
  // Everything fits Ĉ, so the static full-set chain sits on the bound from
  // the start: the check at the first block boundary stops the run.
  std::vector<Committee> committees;
  for (std::uint32_t i = 0; i < 6; ++i) {
    committees.push_back({i, 100, 500.0 + i});
  }
  const EpochInstance inst(committees, 10.0, 10'000, 0);
  SeParams params = certifying_params(1e-9);
  SeScheduler scheduler(inst, params, 2);
  const SeResult stopped = scheduler.run();
  EXPECT_TRUE(stopped.certified);
  EXPECT_TRUE(stopped.converged);
  EXPECT_EQ(stopped.iterations, params.share_interval);
  EXPECT_NEAR(stopped.utility, stopped.bound, 1e-9 * stopped.bound);

  params.gap_tolerance = 0.0;
  SeScheduler full(inst, params, 2);
  const SeResult converged = full.run();
  EXPECT_FALSE(converged.certified);
  // The optimum from iteration 1, then a full stale window.
  EXPECT_EQ(converged.iterations, params.convergence_window + 1);
  EXPECT_EQ(converged.best, stopped.best);
}

// --- Online dynamics ---------------------------------------------------------

TEST(SeSchedulerDynamicsTest, JoinGrowsTheInstanceAndStaysFeasible) {
  const EpochInstance inst = random_instance(7, 10, 2);
  SeScheduler scheduler(inst, quick_params(1), 3);
  for (int i = 0; i < 200; ++i) scheduler.step();
  scheduler.add_committee({100, 800, 950.0});
  EXPECT_EQ(scheduler.instance().size(), 11u);
  for (int i = 0; i < 200; ++i) scheduler.step();
  const Selection x = scheduler.current_selection();
  ASSERT_FALSE(x.empty());
  EXPECT_TRUE(scheduler.instance().feasible(x));
}

TEST(SeSchedulerDynamicsTest, LeaveShrinksAndRecovers) {
  const EpochInstance inst = random_instance(8, 10, 2);
  SeScheduler scheduler(inst, quick_params(2), 4);
  for (int i = 0; i < 300; ++i) scheduler.step();
  const double before = scheduler.current_utility();
  ASSERT_FALSE(std::isnan(before));

  // Fail a committee that is in the current best selection so the trimmed
  // space (Fig. 7) really bites.
  const Selection x = scheduler.current_selection();
  std::uint32_t victim = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) {
      victim = scheduler.instance().committees()[i].id;
      break;
    }
  }
  scheduler.remove_committee(victim);
  EXPECT_EQ(scheduler.instance().size(), 9u);
  for (int i = 0; i < 600; ++i) scheduler.step();
  const Selection after = scheduler.current_selection();
  ASSERT_FALSE(after.empty());
  EXPECT_TRUE(scheduler.instance().feasible(after));
  // The failed committee is gone from the instance entirely.
  for (const Committee& c : scheduler.instance().committees()) {
    EXPECT_NE(c.id, victim);
  }
}

TEST(SeSchedulerDynamicsTest, RemoveUnknownIdIsNoop) {
  const EpochInstance inst = random_instance(9);
  SeScheduler scheduler(inst, quick_params(1), 5);
  scheduler.remove_committee(424242);
  EXPECT_EQ(scheduler.instance().size(), inst.size());
}

TEST(SeSchedulerDynamicsTest, DeadlineTracksJoinedStraggler) {
  const EpochInstance inst = random_instance(10);
  SeScheduler scheduler(inst, quick_params(1), 6);
  const double deadline_before = scheduler.instance().deadline();
  scheduler.add_committee({200, 700, deadline_before + 500.0});
  EXPECT_DOUBLE_EQ(scheduler.instance().deadline(), deadline_before + 500.0);
}

// Sweep β: larger β should (stochastically) not hurt converged utility on a
// fixed instance — the stationary distribution concentrates on optima.
class SeBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SeBetaSweep, ConvergedUtilityWithinOptimalityLoss) {
  const double beta = GetParam();
  const EpochInstance inst = random_instance(11, 12, 2);
  Exhaustive exact;
  const auto truth = exact.solve(inst);
  ASSERT_TRUE(truth.feasible);
  SeParams p = quick_params(4);
  p.beta = beta;
  SeScheduler scheduler(inst, p, 77);
  const SeResult result = scheduler.run();
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.utility, 0.9 * truth.utility) << "beta " << beta;
}

INSTANTIATE_TEST_SUITE_P(Betas, SeBetaSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

// The exp-free Metropolis reject must decide exactly as u >= exp(x) for
// every draw uniform01() can return: 0, or a multiple of 2⁻⁵³. The grid
// straddles the −37 cut (exp(−36.7) > 2⁻⁵³ > exp(−37)), the exp underflow
// to subnormals (−708) and to zero (−745.2), and the u == 0 draw.
TEST(SeMetropolisTest, ExpFreeRejectEqualsTheExpComparison) {
  using mvcom::core::detail::metropolis_rejects;
  constexpr double kUlp = 0x1.0p-53;  // smallest nonzero uniform01()
  EXPECT_LT(std::exp(-37.0), kUlp);
  EXPECT_GT(std::exp(-36.7), kUlp);
  for (const double x :
       {0.0, -1e-300, -36.7, -37.0, -40.0, -708.0, -745.2, -1e6}) {
    for (const double u : {0.0, kUlp, 2 * kUlp, 0.5, 1.0 - kUlp}) {
      EXPECT_EQ(metropolis_rejects(u, x), u >= std::exp(x))
          << "x=" << x << " u=" << u;
    }
  }
  mvcom::common::Rng rng(37);
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform01();
    const double x = rng.uniform(-60.0, 0.0);
    ASSERT_EQ(metropolis_rejects(u, x), u >= std::exp(x))
        << "x=" << x << " u=" << u;
  }
}

}  // namespace
