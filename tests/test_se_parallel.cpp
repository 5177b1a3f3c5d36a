// Tests for the SE scheduler's real parallel execution path, a pool lent to
// its constructor: determinism contract against the serial path, the
// independent-chain bitwise guarantee at share_interval == max_iterations,
// a lent pool nested inside an outer batch (also under the certified stop),
// a join/leave storm interleaved with parallel
// stepping (the ThreadSanitizer workloads run by tools/run_tsan_tests.sh),
// and schedule digests pinned to constants so SE trajectories hold across
// commits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::core::SeParams;
using mvcom::core::SeResult;
using mvcom::core::SeScheduler;

EpochInstance random_instance(std::uint64_t seed, std::size_t n = 24,
                              std::size_t n_min = 4) {
  mvcom::common::Rng rng(seed);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Committee c{static_cast<std::uint32_t>(i), 500 + rng.below(1500),
                600.0 + rng.uniform(0.0, 900.0)};
    total += c.txs;
    committees.push_back(c);
  }
  return EpochInstance(std::move(committees), 1.5, (total * 7) / 10, n_min);
}

void expect_identical(const SeResult& serial, const SeResult& parallel) {
  EXPECT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(serial.converged, parallel.converged);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_DOUBLE_EQ(serial.utility, parallel.utility);
  EXPECT_DOUBLE_EQ(serial.valuable_degree, parallel.valuable_degree);
  ASSERT_EQ(serial.utility_trace.size(), parallel.utility_trace.size());
  for (std::size_t i = 0; i < serial.utility_trace.size(); ++i) {
    const double a = serial.utility_trace[i];
    const double b = parallel.utility_trace[i];
    if (std::isnan(a)) {
      EXPECT_TRUE(std::isnan(b)) << "iteration " << i;
    } else {
      EXPECT_DOUBLE_EQ(a, b) << "iteration " << i;
    }
  }
}

SeResult run_serial(const EpochInstance& inst, const SeParams& params,
                    std::uint64_t seed) {
  SeScheduler scheduler(inst, params, seed);
  return scheduler.run();
}

/// The same run on a pool lent to the scheduler.
SeResult run_lent(const EpochInstance& inst, const SeParams& params,
                  std::uint64_t seed, std::size_t workers = 2) {
  mvcom::common::ThreadPool pool(workers);
  SeScheduler scheduler(inst, params, seed, &pool);
  return scheduler.run();
}

TEST(SeParallelTest, IndependentChainsAreBitwiseEqualToSerial) {
  // share_interval == max_iterations: the Γ chains never communicate, so
  // each explorer's trajectory depends only on its private forked Rng —
  // serial and pool execution must agree bit for bit.
  const EpochInstance inst = random_instance(1);
  SeParams params;
  params.threads = 4;
  params.max_iterations = 600;
  params.share_interval = params.max_iterations;
  params.convergence_window = params.max_iterations + 1;  // fixed budget
  expect_identical(run_serial(inst, params, 99), run_lent(inst, params, 99));
}

TEST(SeParallelTest, SharingAtBarriersPreservesBitwiseEquality) {
  // With cooperation enabled the incumbent exchange runs under the barrier
  // at the same iteration numbers as the serial path, so results still
  // match exactly.
  const EpochInstance inst = random_instance(2);
  SeParams params;
  params.threads = 4;
  params.max_iterations = 900;
  params.share_interval = 50;
  params.convergence_window = params.max_iterations + 1;
  expect_identical(run_serial(inst, params, 7), run_lent(inst, params, 7));
}

TEST(SeParallelTest, ConvergenceDetectionMatchesSerial) {
  const EpochInstance inst = random_instance(3);
  SeParams params;
  params.threads = 3;
  params.max_iterations = 5000;
  params.share_interval = 100;
  params.convergence_window = 300;
  const SeResult serial = run_serial(inst, params, 21);
  EXPECT_TRUE(serial.converged);
  expect_identical(serial, run_lent(inst, params, 21));
}

TEST(SeParallelTest, LentPoolNestedInAnOuterBatchMatchesSerial) {
  // The serve pipeline's shape: the scheduler runs inside one task of an
  // outer batch on the pool it borrows, while a sibling task occupies a
  // worker, so its explorer batches nest and share the remaining contexts.
  const EpochInstance inst = random_instance(7);
  SeParams params;
  params.threads = 4;
  params.max_iterations = 600;
  params.share_interval = 50;
  params.convergence_window = params.max_iterations + 1;
  const SeResult serial = run_serial(inst, params, 17);
  mvcom::common::ThreadPool pool(2);
  SeResult nested;
  std::uint64_t sibling = 0;
  pool.parallel_for(2, [&](std::size_t task) {
    if (task == 0) {
      SeScheduler scheduler(inst, params, 17, &pool);
      nested = scheduler.run();
    } else {
      mvcom::common::Rng rng(3);
      for (int i = 0; i < 100'000; ++i) sibling += rng.below(7);
    }
  });
  EXPECT_GT(sibling, 0u);
  expect_identical(serial, nested);
}

TEST(SeParallelTest, CertifiedStopBuildsExplorersLazilyOnANestedLentPool) {
  // A warm-started scheduler on a lent pool, nested in an outer batch as
  // stage B nests it: the constructor builds the explorers on the pool,
  // inside the batch. The certified floor returns with 0 iterations, and
  // advancing afterwards must match a serial tolerance-0 scheduler
  // bitwise.
  const EpochInstance inst = random_instance(9, 40, 0);
  SeParams params;
  params.threads = 4;
  params.share_interval = 25;
  Selection seed(inst.size(), 0);
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const std::uint64_t txs = inst.committees()[i].txs;
    if (inst.gain(i) > 0.0 && used + txs <= inst.capacity()) {
      seed[i] = 1;
      used += txs;
    }
  }
  const double gap = mvcom::core::relative_gap(
      mvcom::core::fractional_bound(inst), inst.utility(seed));

  SeScheduler reference(inst, params, 41);
  ASSERT_FALSE(std::isnan(reference.warm_start(seed)));
  reference.advance(80);

  params.gap_tolerance = gap + 1e-9;  // just certifies the seed
  mvcom::common::ThreadPool pool(2);
  std::uint64_t sibling = 0;
  pool.parallel_for(2, [&](std::size_t task) {
    if (task == 0) {
      SeScheduler scheduler(inst, params, 41, &pool);
      ASSERT_FALSE(std::isnan(scheduler.warm_start(seed)));
      const SeResult kept = scheduler.run();
      EXPECT_TRUE(kept.certified);
      EXPECT_EQ(kept.iterations, 0u);
      EXPECT_EQ(kept.best, seed);
      scheduler.advance(80);
      EXPECT_EQ(scheduler.current_selection(), reference.current_selection());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scheduler.current_utility()),
                std::bit_cast<std::uint64_t>(reference.current_utility()));
    } else {
      mvcom::common::Rng rng(3);
      for (int i = 0; i < 100'000; ++i) sibling += rng.below(7);
    }
  });
  EXPECT_GT(sibling, 0u);
}

TEST(SeParallelTest, JoinLeaveStormStaysFeasibleUnderParallelStepping) {
  // The TSan workload: dynamics (add/remove) interleaved with pool-driven
  // stepping. Every observed selection must respect capacity and N_min of
  // the instance at observation time.
  const EpochInstance inst = random_instance(5, 16, 2);
  SeParams params;
  params.threads = 4;
  params.share_interval = 25;
  mvcom::common::ThreadPool pool(3);
  SeScheduler scheduler(inst, params, 31, &pool);
  mvcom::common::Rng rng(77);
  std::uint32_t next_id = 1000;
  for (int round = 0; round < 40; ++round) {
    scheduler.advance(30);
    if (round % 3 == 0) {
      scheduler.add_committee(
          {next_id++, 500 + rng.below(1500), 600.0 + rng.uniform(0.0, 900.0)});
    } else if (scheduler.instance().size() > 6) {
      // Remove a committee that is currently selected when possible, so the
      // trimmed-space re-initialization (Fig. 7) really runs.
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
    for (int i = 0; i < 5; ++i) scheduler.step();  // single-step path too
    const Selection x = scheduler.current_selection();
    if (x.empty()) continue;
    const auto st = scheduler.instance().stats(x);
    ASSERT_LE(st.txs, scheduler.instance().capacity()) << "round " << round;
    ASSERT_GE(st.chosen, scheduler.instance().n_min()) << "round " << round;
  }
}

// --- Determinism matrix (the 50k-scaling PR's correctness gate) ---------
//
// Identical seeds must yield bitwise-identical schedules across execution
// shapes: serial vs lent pools of {1, 2, 8} workers (workers claim whole
// explorers between barriers, so the worker count can change wall-clock but
// never results).
// Exercised at I=50 (full chain family) and I=5000 (strided family, the
// scale-tier code path).
//
// Comparing two execution shapes of one build cannot catch a refactor that
// shifts a single RNG draw or accept decision in both, so every row also
// pins its digest to a constant: the SE trajectory itself is fixed across
// commits. A change that moves one must say why and re-pin it. The digest
// is SHA-256 over the best selection, the utility bits, and the full
// utility trace. The MVCOM_OBS=ON and OFF builds both run these tests
// against the same constants, so the pins also hold the bitwise guarantee
// across observability configurations.

constexpr std::string_view kPinnedI50 =
    "6cb02963b30fd3afad92e71c17bafda4c55f459516f60e857f02b601aedf5b39";
constexpr std::string_view kPinnedI5000 =
    "6dd1bf180042791450217d2f7dfea82e21237d361612d670c81f7056b4d37a76";
constexpr std::string_view kPinnedServe =
    "78ebee9e9b551810b273625d3a7b177c26d8a71e901ba9c13f75007b07e9a8ae";
constexpr std::string_view kPinnedRebind =
    "46e118e18d3e07224250ba8186d6aeddd1a51ed38e8bf938b5e8c1ed17786340";

std::string result_digest(const SeResult& r) {
  mvcom::crypto::Sha256 h;
  h.update(std::string_view(reinterpret_cast<const char*>(r.best.data()),
                            r.best.size()));
  const auto absorb_double = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    h.update(std::string_view(reinterpret_cast<const char*>(&bits),
                              sizeof bits));
  };
  absorb_double(r.utility);
  for (const double u : r.utility_trace) {
    absorb_double(std::isnan(u) ? 0.0 : u);  // canonicalize NaN payloads
  }
  return mvcom::crypto::to_hex(h.finalize());
}

/// Checks one matrix row's digest against its pinned constant.
void expect_pinned(const std::string& row, const SeResult& r,
                   std::string_view pinned) {
  EXPECT_EQ(result_digest(r), pinned) << row;
}

TEST(SeDeterminismMatrix, WorkerCountsAndSerialAgreeBitwise) {
  for (const std::size_t icount : {std::size_t{50}, std::size_t{5000}}) {
    SCOPED_TRACE("I=" + std::to_string(icount));
    const EpochInstance inst =
        random_instance(icount, icount, icount / 10);
    SeParams params;
    params.threads = 4;
    params.max_iterations = icount <= 50 ? 400 : 40;
    params.share_interval = 10;
    params.convergence_window = params.max_iterations + 1;
    params.max_family = 96;  // forces the strided family at I=5000

    const SeResult serial = run_serial(inst, params, 99);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      expect_identical(serial, run_lent(inst, params, 99, workers));
    }
    expect_pinned("I=" + std::to_string(icount), serial,
                  icount == 50 ? kPinnedI50 : kPinnedI5000);
  }
}

/// The serve pipeline's SE call: ~900 pending shards (inside the default
/// max_family, so the full n = 1..|I| family), N_min = 0, Ĉ = 60 % of the
/// pending TXs, Γ = 4, warm-started from a first-fit seed.
struct ServeShaped {
  EpochInstance inst;
  Selection seed;
};

ServeShaped serve_shaped() {
  mvcom::common::Rng rng(2016);
  std::vector<Committee> committees;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 900; ++i) {
    committees.push_back(
        {i, 2000 + rng.below(12000), rng.uniform(0.0, 8000.0)});
    total += committees.back().txs;
  }
  EpochInstance inst(std::move(committees), 1.5, total * 6 / 10, 0);
  Selection seed(inst.size(), 0);
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const std::uint64_t txs = inst.committees()[i].txs;
    if (inst.gain(i) > 0.0 && used + txs <= inst.capacity()) {
      seed[i] = 1;
      used += txs;
    }
  }
  return {std::move(inst), std::move(seed)};
}

/// One warm-started serve-shaped run, serially and on a lent pool; the two
/// must agree bitwise.
SeResult run_serve_shaped(const ServeShaped& shape, const SeParams& params) {
  const auto run = [&](mvcom::common::ThreadPool* pool) {
    SeScheduler scheduler(shape.inst, params, 5, pool);
    EXPECT_FALSE(std::isnan(scheduler.warm_start(shape.seed)));
    return scheduler.run();
  };
  const SeResult serial = run(nullptr);
  mvcom::common::ThreadPool pool(2);
  expect_identical(serial, run(&pool));
  return serial;
}

SeParams serve_shaped_params() {
  SeParams params;
  params.threads = 4;
  params.max_iterations = 100;
  params.convergence_window = params.max_iterations + 1;
  return params;
}

TEST(SeDeterminismMatrix, ServeShapedFullFamilyIsPinned) {
  expect_pinned("serve",
                run_serve_shaped(serve_shaped(), serve_shaped_params()),
                kPinnedServe);
}

TEST(SeDeterminismMatrix, ServeShapedUncertifiedSeedKeepsTheServePin) {
  // A tolerance the seed never meets: SE runs exactly as at tolerance 0
  // and hits the same pinned digest.
  const ServeShaped shape = serve_shaped();
  SeParams params = serve_shaped_params();
  params.gap_tolerance = 1e-6;
  const double seed_gap =
      mvcom::core::relative_gap(mvcom::core::fractional_bound(shape.inst),
                                shape.inst.utility(shape.seed));
  ASSERT_GT(seed_gap, params.gap_tolerance);
  const SeResult result = run_serve_shaped(shape, params);
  EXPECT_FALSE(result.certified);
  EXPECT_EQ(result.iterations, params.max_iterations);
  expect_pinned("serve-tolerance", result, kPinnedServe);
}

TEST(SeDeterminismMatrix, JoinLeaveResizeIsPinned) {
  // Pins SeExplorer::rebind: a join, the leave of a selected committee and
  // an N_min resize, each after a stretch of exploration.
  const EpochInstance inst = random_instance(8, 40, 4);
  SeParams params;
  params.threads = 4;
  params.max_iterations = 100;
  params.share_interval = 10;
  params.convergence_window = params.max_iterations + 1;
  const auto run = [&](mvcom::common::ThreadPool* pool) {
    SeScheduler scheduler(inst, params, 23, pool);
    scheduler.advance(60);
    scheduler.add_committee({900, 1200, 700.0});
    scheduler.advance(60);
    const Selection x = scheduler.current_selection();
    const auto selected = std::find(x.begin(), x.end(), 1);
    EXPECT_NE(selected, x.end());
    scheduler.remove_committee(
        scheduler.instance()
            .committees()[static_cast<std::size_t>(selected - x.begin())]
            .id);
    scheduler.advance(60);
    scheduler.set_n_min(9);
    scheduler.advance(60);
    return scheduler.run();
  };
  const SeResult serial = run(nullptr);
  mvcom::common::ThreadPool pool(2);
  expect_identical(serial, run(&pool));
  expect_pinned("rebind", serial, kPinnedRebind);
}

TEST(SeParallelTest, GammaOneIgnoresParallelFlag) {
  // Γ=1 has nothing to fan out; a lent pool must be a harmless no-op.
  const EpochInstance inst = random_instance(6, 12, 2);
  SeParams params;
  params.threads = 1;
  params.max_iterations = 400;
  params.convergence_window = params.max_iterations + 1;
  expect_identical(run_serial(inst, params, 3), run_lent(inst, params, 3));
}

}  // namespace
