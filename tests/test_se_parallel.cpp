// Tests for the SE scheduler's real parallel execution path — a pool the
// scheduler owns (SeParams::parallel_execution) or one lent to its
// constructor: determinism contract against the serial path, the
// independent-chain bitwise guarantee at share_interval == max_iterations,
// pool-backed online exploration, a lent pool nested inside an outer batch,
// and a join/leave storm interleaved with parallel stepping (the
// ThreadSanitizer workload run by tools/run_tsan_tests.sh).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "mvcom/online.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

using mvcom::core::Committee;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::core::SeParams;
using mvcom::core::SeResult;
using mvcom::core::SeScheduler;
using mvcom::core::SeTransition;

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

SeResult run_once(const EpochInstance& inst, SeParams params, bool parallel,
                  std::uint64_t seed) {
  params.parallel_execution = parallel;
  SeScheduler scheduler(inst, params, seed);
  return scheduler.run();
}

/// The same run on a pool lent to the scheduler (parallel_execution off, so
/// the lent pool is the only one).
SeResult run_lent(const EpochInstance& inst, const SeParams& params,
                  std::uint64_t seed, std::size_t workers = 2) {
  mvcom::common::ThreadPool pool(workers);
  SeScheduler scheduler(inst, params, seed, &pool);
  return scheduler.run();
}

/// Serial against both pool shapes: owned and lent.
void expect_pooled_identical(const EpochInstance& inst, const SeParams& params,
                             std::uint64_t seed) {
  const SeResult serial = run_once(inst, params, false, seed);
  expect_identical(serial, run_once(inst, params, true, seed));
  expect_identical(serial, run_lent(inst, params, seed));
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
  expect_pooled_identical(inst, params, 99);
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
  expect_pooled_identical(inst, params, 7);
}

TEST(SeParallelTest, ConvergenceDetectionMatchesSerial) {
  const EpochInstance inst = random_instance(3);
  SeParams params;
  params.threads = 3;
  params.max_iterations = 5000;
  params.share_interval = 100;
  params.convergence_window = 300;
  const SeResult serial = run_once(inst, params, false, 21);
  EXPECT_TRUE(serial.converged);
  expect_identical(serial, run_once(inst, params, true, 21));
  expect_identical(serial, run_lent(inst, params, 21));
}

TEST(SeParallelTest, TimerRaceKernelAlsoMatches) {
  const EpochInstance inst = random_instance(4, 16, 3);
  SeParams params;
  params.threads = 4;
  params.transition = SeTransition::kTimerRace;
  params.max_iterations = 800;
  params.share_interval = 40;
  params.convergence_window = params.max_iterations + 1;
  expect_pooled_identical(inst, params, 13);
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
  const SeResult serial = run_once(inst, params, false, 17);
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

TEST(SeParallelTest, JoinLeaveStormStaysFeasibleUnderParallelStepping) {
  // The TSan workload: dynamics (add/remove) interleaved with pool-driven
  // stepping. Every observed selection must respect capacity and N_min of
  // the instance at observation time.
  const EpochInstance inst = random_instance(5, 16, 2);
  SeParams params;
  params.threads = 4;
  params.parallel_execution = true;
  params.share_interval = 25;
  SeScheduler scheduler(inst, params, 31);
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

TEST(SeParallelTest, OnlineSchedulerExploresThroughThePool) {
  mvcom::core::OnlineSchedulerConfig config;
  config.alpha = 1.5;
  config.capacity = 4000;
  config.expected_committees = 10;
  config.se.threads = 4;
  config.se.parallel_execution = true;
  mvcom::core::OnlineCommitteeScheduler scheduler(config, 11);
  mvcom::common::Rng rng(5);
  for (std::uint32_t i = 0; i < 8; ++i) {
    mvcom::txn::ShardReport r;
    r.committee_id = i;
    r.tx_count = 500 + rng.below(400);
    r.formation_latency = 650.0 + 20.0 * i;
    r.consensus_latency = 0.0;
    scheduler.on_report(r);
  }
  scheduler.on_failure(2);
  scheduler.explore(1000);
  const auto decision = scheduler.decide();
  ASSERT_TRUE(decision.feasible);
  EXPECT_LE(decision.permitted_txs, config.capacity);
  for (const std::uint32_t id : decision.permitted_ids) EXPECT_NE(id, 2u);
}

// --- Determinism matrix (the 50k-scaling PR's correctness gate) ---------
//
// Identical seeds must yield bitwise-identical schedules across execution
// shapes: serial vs pool-backed, and pool worker counts {1, 2, 8} (via
// SeParams::max_pool_workers for an owned pool, the pool's size for a lent
// one — workers claim whole explorers between barriers, so the worker count
// can change wall-clock but never results).
// Exercised at I=50 (full chain family) and I=5000 (strided family, the
// scale-tier code path).
//
// The same runs also feed a digest file when MVCOM_DETERMINISM_DIGEST is
// set: SHA-256 over the best selection, the utility bits, and the full
// utility trace. CI runs this test in MVCOM_OBS=ON and OBS=OFF builds and
// diffs the two digest files, extending the bitwise guarantee across
// observability configurations (which no single binary can check alone).

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

TEST(SeDeterminismMatrix, WorkerCountsAndSerialAgreeBitwise) {
  const char* digest_path = std::getenv("MVCOM_DETERMINISM_DIGEST");
  std::ofstream digest_out;
  if (digest_path != nullptr && *digest_path != '\0') {
    digest_out.open(digest_path, std::ios::trunc);
    ASSERT_TRUE(digest_out) << "cannot open " << digest_path;
  }

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

    const SeResult serial = run_once(inst, params, false, 99);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      params.max_pool_workers = workers;
      expect_identical(serial, run_once(inst, params, true, 99));
      expect_identical(serial, run_lent(inst, params, 99, workers));
    }
    if (digest_out.is_open()) {
      digest_out << "I=" << icount << " " << result_digest(serial) << "\n";
    }
  }
}

TEST(SeParallelTest, GammaOneIgnoresParallelFlag) {
  // Γ=1 has nothing to fan out; the flag must be a harmless no-op.
  const EpochInstance inst = random_instance(6, 12, 2);
  SeParams params;
  params.threads = 1;
  params.max_iterations = 400;
  params.convergence_window = params.max_iterations + 1;
  expect_pooled_identical(inst, params, 3);
}

}  // namespace
