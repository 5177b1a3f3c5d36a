// The streaming epoch pipeline's determinism matrix and cross-epoch
// correctness suite (mirrors test_elastico_lanes for the serve path):
//
//  * pipelined execution (overlap depth 2, any worker count, with the SE
//    explorers nested on the same pool) must be bitwise identical to the
//    sequential reference (depth 1, no pool) — per-epoch event_order_digest,
//    utility, and age accounting;
//  * SE warm start can never report worse than its seed, and the pipeline's
//    warm epochs are never worse than cold epochs under identical seeds by
//    more than the certified stop's tolerance;
//  * an epoch whose seed is certified against the fractional-knapsack bound
//    commits it without running SE, and every report carries that bound;
//  * carried shards (including shards carried twice) are never double
//    counted: ingested == committed + pending on every exit path;
//  * the RNG substreams behind all of this are (seed, epoch)-derived, so
//    overlapped epochs draw identically to sequential ones;
//  * a decision policy replaces stage B's default decision under the same
//    contract, and a selection it returns that breaks Eq. (3)/(4) or is
//    mis-sized stops the run before the epoch commits.

#include "pipeline/epoch_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dynamic_programming.hpp"
#include "crypto/pow.hpp"
#include "mvcom/se_scheduler.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/serve.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::pipeline::DecisionPolicy;
using mvcom::pipeline::EpochPipeline;
using mvcom::pipeline::EpochReport;
using mvcom::pipeline::PipelineConfig;
using mvcom::pipeline::PipelineTotals;
using mvcom::txn::Trace;

Trace small_trace() {
  Rng rng(2016);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 90;
  tc.target_total_txs = 45'000;
  tc.mean_interblock_seconds = 15.0;
  return mvcom::txn::generate_trace(tc, rng);
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.committees = 6;
  config.epochs = 4;
  config.capacity_fraction = 0.6;
  // Γ = 4 outnumbers the contexts of the matrix's 1- and 2-worker pools, so
  // stage B's nested explorer batches have to share them.
  config.se.threads = 4;
  config.se.max_iterations = 150;
  config.se.convergence_window = 150;
  config.seed = 7;
  return config;
}

struct RunRecord {
  std::vector<EpochReport> reports;
  PipelineTotals totals;
};

RunRecord run_pipeline(const Trace& trace, PipelineConfig config,
                       DecisionPolicy policy = {}) {
  EpochPipeline pipe(trace, config);
  pipe.set_policy(std::move(policy));
  RunRecord rec;
  rec.totals = pipe.run(
      [&](const EpochReport& r) { rec.reports.push_back(r); });
  EXPECT_TRUE(pipe.chain().validate_full());
  return rec;
}

// --- Determinism matrix ------------------------------------------------------

TEST(PipelineDeterminism, OverlapAndWorkersNeverChangeResults) {
  // At the default tolerance most epochs skip SE; at 0 every epoch runs
  // its explorers nested on the pool.
  for (const double tolerance : {0.0, PipelineConfig{}.se.gap_tolerance}) {
    SCOPED_TRACE("gap_tolerance=" + std::to_string(tolerance));
    const Trace trace = small_trace();
    PipelineConfig base = small_config();
    base.se.gap_tolerance = tolerance;

    PipelineConfig ref_config = base;
    ref_config.overlap_depth = 1;
    ref_config.workers = 0;
    const RunRecord ref = run_pipeline(trace, ref_config);
    ASSERT_EQ(ref.reports.size(), base.epochs);

    for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t workers :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        PipelineConfig config = base;
        config.overlap_depth = depth;
        config.workers = workers;
        const RunRecord got = run_pipeline(trace, config);
        ASSERT_EQ(got.reports.size(), ref.reports.size())
            << "depth=" << depth << " workers=" << workers;
        for (std::size_t e = 0; e < ref.reports.size(); ++e) {
          const EpochReport& a = ref.reports[e];
          const EpochReport& b = got.reports[e];
          EXPECT_EQ(a.event_order_digest, b.event_order_digest)
              << "epoch " << e << " depth=" << depth << " workers=" << workers;
          EXPECT_EQ(a.utility, b.utility) << "epoch " << e;
          EXPECT_EQ(a.utility_bound, b.utility_bound) << "epoch " << e;
          EXPECT_EQ(a.se_iterations, b.se_iterations) << "epoch " << e;
          EXPECT_EQ(a.total_age, b.total_age) << "epoch " << e;
          EXPECT_EQ(a.committed_txs, b.committed_txs) << "epoch " << e;
          EXPECT_EQ(a.carried_txs, b.carried_txs) << "epoch " << e;
          EXPECT_EQ(a.start, b.start) << "epoch " << e;
          EXPECT_EQ(a.commit, b.commit) << "epoch " << e;
          EXPECT_EQ(a.des_events, b.des_events) << "epoch " << e;
        }
        EXPECT_EQ(got.totals.digest, ref.totals.digest);
        EXPECT_EQ(got.totals.committed_txs, ref.totals.committed_txs);
        EXPECT_EQ(got.totals.pending_txs, ref.totals.pending_txs);
        EXPECT_EQ(got.totals.total_age, ref.totals.total_age);
      }
    }
  }
}

// `mvcom serve` attaches sinks only when asked for exports, so this is the
// check that they never steer a run: with a registry and a recorder
// attached, every epoch matches the plain run bit for bit.
TEST(PipelineDeterminism, AttachedObservabilityNeverChangesResults) {
  for (const double tolerance : {0.0, PipelineConfig{}.se.gap_tolerance}) {
    SCOPED_TRACE("gap_tolerance=" + std::to_string(tolerance));
    const Trace trace = small_trace();
    PipelineConfig config = small_config();
    config.se.gap_tolerance = tolerance;
    config.workers = 2;
    const RunRecord plain = run_pipeline(trace, config);

    mvcom::obs::MetricsRegistry registry;
    mvcom::obs::TraceRecorder recorder;
    EpochPipeline pipe(trace, config);
    pipe.set_obs(mvcom::obs::ObsContext(&registry, &recorder));
    std::vector<EpochReport> observed;
    const PipelineTotals totals =
        pipe.run([&](const EpochReport& r) { observed.push_back(r); });
    ASSERT_EQ(observed.size(), plain.reports.size());
    for (std::size_t e = 0; e < observed.size(); ++e) {
      EXPECT_EQ(observed[e].event_order_digest,
                plain.reports[e].event_order_digest)
          << "epoch " << e;
      EXPECT_EQ(observed[e].utility, plain.reports[e].utility)
          << "epoch " << e;
      EXPECT_EQ(observed[e].se_iterations, plain.reports[e].se_iterations)
          << "epoch " << e;
      EXPECT_EQ(observed[e].commit, plain.reports[e].commit) << "epoch " << e;
    }
    EXPECT_EQ(totals.digest, plain.totals.digest);
    EXPECT_EQ(registry.counter("mvcom_pipeline_epochs_total").value(),
              config.epochs);
    EXPECT_FALSE(recorder.snapshot().empty());
  }
}

TEST(PipelineDeterminism, PowGrindingKeepsTheContract) {
  // Real PoW grinding in stage A must not perturb the matrix — the nonces
  // are a pure function of (seed, epoch) like every other stage-A output.
  // 40 committees make three grind chunks, so on a pool they grind on
  // several threads, nested in stage A, with waiting submitters helping.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.committees = 40;
  config.epochs = 2;
  config.pow_grind_bits = 6;

  config.overlap_depth = 1;
  config.workers = 0;
  const RunRecord ref = run_pipeline(trace, config);
  ASSERT_EQ(ref.reports.size(), config.epochs);
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      config.overlap_depth = depth;
      config.workers = workers;
      const RunRecord got = run_pipeline(trace, config);
      ASSERT_EQ(ref.reports.size(), got.reports.size());
      for (std::size_t e = 0; e < ref.reports.size(); ++e) {
        EXPECT_EQ(ref.reports[e].event_order_digest,
                  got.reports[e].event_order_digest)
            << "epoch " << e << " depth=" << depth << " workers=" << workers;
      }
      EXPECT_EQ(got.totals.digest, ref.totals.digest)
          << "depth=" << depth << " workers=" << workers;
    }
  }
}

TEST(PipelineDeterminism, SparseWindowsKeepTheContract) {
  // More committees than blocks per window: 90 blocks over four windows
  // leave most of the 40 committees empty each epoch, and those form no
  // shard. Grinding pools and overlap still match the reference.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.committees = 40;
  config.pow_grind_bits = 6;

  config.overlap_depth = 1;
  config.workers = 0;
  const RunRecord ref = run_pipeline(trace, config);
  ASSERT_EQ(ref.reports.size(), config.epochs);
  for (const EpochReport& r : ref.reports) {
    EXPECT_GT(r.shards_pending, 0u) << "epoch " << r.epoch;
  }
  EXPECT_LT(ref.reports.front().shards_pending, config.committees);
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      config.overlap_depth = depth;
      config.workers = workers;
      const RunRecord got = run_pipeline(trace, config);
      ASSERT_EQ(ref.reports.size(), got.reports.size());
      for (std::size_t e = 0; e < ref.reports.size(); ++e) {
        const EpochReport& a = ref.reports[e];
        const EpochReport& b = got.reports[e];
        EXPECT_EQ(a.event_order_digest, b.event_order_digest)
            << "epoch " << e << " depth=" << depth << " workers=" << workers;
        EXPECT_EQ(a.shards_pending, b.shards_pending) << "epoch " << e;
        EXPECT_EQ(a.pow_attempts, b.pow_attempts) << "epoch " << e;
        EXPECT_EQ(a.total_age, b.total_age) << "epoch " << e;
        EXPECT_EQ(a.commit, b.commit) << "epoch " << e;
      }
      EXPECT_EQ(got.totals.digest, ref.totals.digest)
          << "depth=" << depth << " workers=" << workers;
      EXPECT_EQ(got.totals.pending_txs, ref.totals.pending_txs);
    }
  }
}

TEST(PipelineDeterminism, PowAttemptsMatchARecomputedGrind) {
  // EpochReport::pow_attempts counts stage A's hashes: per committee, the
  // winning nonce + 1, or the budget when it gave up. The pooled grind at
  // depth 2 counts what the sequential reference counts, and both match
  // grinding every committee's puzzle again with crypto::solve.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.epochs = 2;
  config.pow_grind_bits = 6;
  config.overlap_depth = 1;
  config.workers = 0;
  const RunRecord sequential = run_pipeline(trace, config);
  config.overlap_depth = 2;
  config.workers = 2;
  EpochPipeline pipe(trace, config);
  mvcom::obs::MetricsRegistry registry;
  pipe.set_obs(mvcom::obs::ObsContext(&registry, nullptr));
  std::vector<EpochReport> pipelined;
  (void)pipe.run([&](const EpochReport& r) { pipelined.push_back(r); });
  ASSERT_EQ(sequential.reports.size(), config.epochs);
  ASSERT_EQ(pipelined.size(), config.epochs);

  const auto target =
      mvcom::crypto::PowTarget::from_difficulty_bits(config.pow_grind_bits);
  const std::uint64_t budget = std::uint64_t{64} << config.pow_grind_bits;
  // The pipeline's epoch windows: committee c is dealt a block (round
  // robin) when the window holds more than c of them.
  const double first = trace.blocks.front().btime;
  const double window = (trace.blocks.back().btime - first + 1.0) /
                        static_cast<double>(config.epochs);
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    const double begin = first + static_cast<double>(e) * window;
    const double end = first + static_cast<double>(e + 1) * window;
    std::size_t dealt = 0;
    for (const mvcom::txn::BlockRecord& b : trace.blocks) {
      if (b.btime < end && (e == 0 || b.btime >= begin)) ++dealt;
    }
    const std::string randomness =
        "serve|" + std::to_string(config.seed) + "|" + std::to_string(e);
    std::uint64_t expected = 0;
    for (std::size_t c = 0; c < std::min(dealt, config.committees); ++c) {
      const auto solution = mvcom::crypto::solve(
          randomness, "committee-" + std::to_string(e * config.committees + c),
          target, budget);
      expected += solution ? solution->nonce + 1 : budget;
    }
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(sequential.reports[e].pow_attempts, expected) << "epoch " << e;
    EXPECT_EQ(pipelined[e].pow_attempts, expected) << "epoch " << e;
    total += expected;
  }
  EXPECT_EQ(registry.counter("mvcom_pipeline_pow_attempts_total").value(),
            total);
}

TEST(PipelineConfigTest, RejectsGrindBitsOutsideZeroTo63) {
  // PowTarget::from_difficulty_bits is defined for 0..63 bits only; the
  // pipeline refuses anything else up front instead of mid-run.
  const Trace trace = small_trace();
  for (const int bits : {-1, 64, 1000}) {
    PipelineConfig config = small_config();
    config.pow_grind_bits = bits;
    EXPECT_THROW(EpochPipeline(trace, config), std::invalid_argument)
        << "bits " << bits;
  }
  for (const int bits : {0, 63}) {
    PipelineConfig config = small_config();
    config.pow_grind_bits = bits;
    EXPECT_NO_THROW(EpochPipeline(trace, config)) << "bits " << bits;
  }
}

TEST(PipelineConfigTest, RejectsOverlapDepthAbove2) {
  // Depth 1 is the sequential reference and 2 pairs B(k) with A(k+1); a
  // deeper lookahead would run the same batch. 0 means 1.
  const Trace trace = small_trace();
  for (const std::size_t depth : {std::size_t{3}, std::size_t{64}}) {
    PipelineConfig config = small_config();
    config.overlap_depth = depth;
    EXPECT_THROW(EpochPipeline(trace, config), std::invalid_argument)
        << "depth " << depth;
  }
  for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                  std::size_t{2}}) {
    PipelineConfig config = small_config();
    config.overlap_depth = depth;
    EXPECT_NO_THROW(EpochPipeline(trace, config)) << "depth " << depth;
  }
}

TEST(PipelineConfigTest, RejectsCapacityFractionOutsideZeroToOne) {
  // Ĉ = fraction · pending TXs is cast to an unsigned count: a negative or
  // NaN product is undefined there, and 0 would commit nothing all run.
  const Trace trace = small_trace();
  for (const double fraction :
       {-1.0, 0.0, 1.0000001, 2.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    PipelineConfig config = small_config();
    config.capacity_fraction = fraction;
    EXPECT_THROW(EpochPipeline(trace, config), std::invalid_argument)
        << "fraction " << fraction;
  }
  for (const double fraction : {1e-9, 0.25, 0.6, 1.0}) {
    PipelineConfig config = small_config();
    config.capacity_fraction = fraction;
    EXPECT_NO_THROW(EpochPipeline(trace, config)) << "fraction " << fraction;
  }
}

// --- Warm start --------------------------------------------------------------

TEST(PipelineWarmStart, SchedulerNeverReportsWorseThanItsSeed) {
  // The structural guarantee behind the pipeline's warm start: run() after
  // warm_start(seed) can never report a feasible utility below the seed's,
  // even with a tiny exploration budget.
  std::vector<mvcom::core::Committee> committees;
  Rng rng(11);
  for (std::uint32_t i = 0; i < 30; ++i) {
    committees.push_back({i, 500 + rng.below(4000), rng.uniform(10.0, 600.0)});
  }
  std::uint64_t total = 0;
  for (const auto& c : committees) total += c.txs;
  const mvcom::core::EpochInstance instance(committees, 1.5, (total * 6) / 10,
                                            2);
  // A decent seed: every SE run below gets almost no iterations, so without
  // the floor it would frequently land beneath this.
  mvcom::core::SeParams probe;
  probe.threads = 2;
  probe.max_iterations = 400;
  probe.convergence_window = 400;
  const auto strong =
      mvcom::core::SeScheduler(instance, probe, 99).run();
  ASSERT_TRUE(strong.feasible);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    mvcom::core::SeParams params;
    params.threads = 2;
    params.max_iterations = 3;
    params.convergence_window = 3;
    mvcom::core::SeScheduler warm(instance, params, seed);
    const double floor = warm.warm_start(strong.best);
    ASSERT_FALSE(std::isnan(floor));
    EXPECT_DOUBLE_EQ(floor, strong.utility);
    const auto result = warm.run();
    ASSERT_TRUE(result.feasible);
    EXPECT_GE(result.utility, floor);
  }
}

TEST(PipelineWarmStart, WarmEpochsNeverWorseThanColdUnderSameSeeds) {
  // With a starved exploration budget the cold pipeline has to rely on its
  // random initial family, while the warm one starts every epoch from the
  // greedy seed. A warm epoch whose seed is certified commits the seed
  // without building SE, so it may trail the cold epoch by at most
  // the tolerance's share of the bound — and otherwise must not lose.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.se.max_iterations = 20;
  config.se.convergence_window = 20;
  const double tolerance = config.se.gap_tolerance;

  config.warm_start = false;
  const RunRecord cold = run_pipeline(trace, config);
  config.warm_start = true;
  const RunRecord warm = run_pipeline(trace, config);
  ASSERT_EQ(cold.reports.size(), warm.reports.size());
  for (std::size_t e = 0; e < warm.reports.size(); ++e) {
    const EpochReport& w = warm.reports[e];
    ASSERT_TRUE(w.feasible);
    if (!std::isnan(w.warm_seed_utility)) {
      // The floor held: the epoch can never close below its seed.
      EXPECT_GE(w.utility, w.warm_seed_utility);
    }
    if (cold.reports[e].feasible) {
      EXPECT_GE(w.utility, cold.reports[e].utility -
                               tolerance * std::fabs(w.utility_bound))
          << "epoch " << e;
    }
  }
}

// --- Certified stop ----------------------------------------------------------

TEST(PipelineCertifiedStop, CertifiedSeedsCommitWithoutRunningSe) {
  const Trace trace = small_trace();
  const PipelineConfig config = small_config();
  const double tolerance = config.se.gap_tolerance;
  ASSERT_GT(tolerance, 0.0) << "the pipeline certifies by default";
  const RunRecord rec = run_pipeline(trace, config);
  std::size_t skipped = 0;
  for (const EpochReport& r : rec.reports) {
    SCOPED_TRACE("epoch " + std::to_string(r.epoch));
    ASSERT_TRUE(r.feasible);
    // No selection beats the bound (up to summation-order rounding).
    EXPECT_GE(r.utility_bound, r.utility - 1e-9 * std::fabs(r.utility));
    if (r.certified) {
      EXPECT_LE(mvcom::core::relative_gap(r.utility_bound, r.utility),
                tolerance);
    }
    if (r.se_iterations == 0) {
      // SE never ran: the committed decision is the seed, bit for bit.
      ++skipped;
      EXPECT_TRUE(r.certified);
      EXPECT_EQ(r.utility, r.warm_seed_utility);
    }
  }
  EXPECT_GT(skipped, 0u) << "no epoch exercised the certified skip";
}

TEST(PipelineCertifiedStop, ToleranceZeroRunsSeEveryEpoch) {
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.se.gap_tolerance = 0.0;
  const RunRecord rec = run_pipeline(trace, config);
  for (const EpochReport& r : rec.reports) {
    SCOPED_TRACE("epoch " + std::to_string(r.epoch));
    EXPECT_FALSE(r.certified);
    EXPECT_GT(r.se_iterations, 0u);
    EXPECT_GT(r.utility_bound, 0.0);
  }
}

// --- Carry-over accounting ---------------------------------------------------

TEST(PipelineCarryOver, NoDoubleCountWhenShardsCarryTwice) {
  // A tight capacity defers most shards every epoch, so some are carried
  // two or more times; none of that may double-count a transaction.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.epochs = 5;
  config.capacity_fraction = 0.25;

  const RunRecord rec = run_pipeline(trace, config);
  EXPECT_GE(rec.totals.max_shard_carries, 2u)
      << "config failed to force a double carry — tighten the capacity";
  EXPECT_EQ(rec.totals.ingested_txs,
            rec.totals.committed_txs + rec.totals.pending_txs);
  // Every TX the trace offered inside the windows was ingested exactly once.
  EXPECT_EQ(rec.totals.ingested_txs, trace.total_txs());
}

TEST(PipelineCarryOver, RealizedBoundaryNeverPrecedesPreviousCommit) {
  const Trace trace = small_trace();
  const RunRecord rec = run_pipeline(trace, small_config());
  double prev_commit = 0.0;
  for (const EpochReport& r : rec.reports) {
    EXPECT_GE(r.start, r.window_end - 1e-9);
    EXPECT_GE(r.start, prev_commit - 1e-9)
        << "epoch " << r.epoch << " started before its predecessor committed";
    EXPECT_GT(r.commit, r.start);
    prev_commit = r.commit;
  }
}

// --- Stop + chain ------------------------------------------------------------

TEST(PipelineStop, GracefulStopKeepsAccountingConsistent) {
  const Trace trace = small_trace();
  EpochPipeline pipe(trace, small_config());
  std::size_t seen = 0;
  const PipelineTotals totals = pipe.run([&](const EpochReport&) {
    if (++seen == 2) pipe.request_stop();
  });
  EXPECT_TRUE(totals.stopped_early);
  EXPECT_EQ(totals.epochs_run, 2u);
  EXPECT_EQ(totals.ingested_txs, totals.committed_txs + totals.pending_txs);
  EXPECT_TRUE(pipe.chain().validate_full());
  EXPECT_EQ(pipe.chain().size(), 3u);  // genesis + 2 epochs
  EXPECT_EQ(pipe.chain().total_txs(), totals.committed_txs);
}

TEST(PipelineStop, LookaheadMemoryIsBoundedByDepthNotEpochs) {
  // A daemon-sized run: the pipeline may hold only overlap_depth formed
  // epochs, so asking for 2^44 epochs must cost no more than asking for 4.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.epochs = std::size_t{1} << 44;
  config.overlap_depth = 2;
  EpochPipeline pipe(trace, config);
  std::vector<EpochReport> reports;
  const PipelineTotals totals = pipe.run([&](const EpochReport& r) {
    reports.push_back(r);
    if (reports.size() == 3) pipe.request_stop();
  });
  EXPECT_TRUE(totals.stopped_early);
  EXPECT_EQ(totals.epochs_run, 3u);
  ASSERT_EQ(reports.size(), 3u);
  for (std::size_t e = 0; e < reports.size(); ++e) {
    EXPECT_EQ(reports[e].epoch, e);
  }
}

TEST(ServeSessionStop, EarlyStopStillFlushesValidArtifacts) {
  // Satellite hardening: a stop request landing mid-run (what the SIGINT
  // handler does) must still leave a valid root-chain checkpoint and
  // validator-passing exporter artifacts — the scope-exit flush path.
  const std::string dir = ::testing::TempDir();
  mvcom::pipeline::ServeConfig config;
  config.pipeline = small_config();
  config.pipeline.epochs = 6;
  config.stream.num_blocks = 90;
  config.stream.target_total_txs = 45'000;
  config.stream.mean_interblock_seconds = 15.0;
  config.metrics_out = dir + "serve_stop_metrics.prom";
  config.trace_out = dir + "serve_stop_trace.json";
  config.checkpoint_out = dir + "serve_stop_checkpoint.json";
  config.checkpoint_every = 1;
  mvcom::pipeline::ServeSession session(config);
  std::size_t seen = 0;
  const mvcom::pipeline::ServeSummary summary =
      session.run([&](const EpochReport&) {
        // Fires from inside the pipeline, like the signal handler would.
        if (++seen == 2) session.request_stop();
      });
  EXPECT_TRUE(summary.totals.stopped_early);
  EXPECT_EQ(summary.totals.epochs_run, 2u);
  EXPECT_TRUE(summary.chain_valid);
  EXPECT_TRUE(summary.artifacts_valid);
  EXPECT_GE(summary.checkpoints_written, 2u);
  // Truncated-run accounting stays exact.
  EXPECT_EQ(summary.totals.ingested_txs,
            summary.totals.committed_txs + summary.totals.pending_txs);
}

TEST(ServeSessionStop, StopBeforeRunRunsNoEpoch) {
  // A SIGINT before the first epoch: the stop lands between construction
  // and run(), so the run commits nothing yet still writes its artifacts.
  mvcom::pipeline::ServeConfig config;
  config.pipeline = small_config();
  config.stream.num_blocks = 90;
  config.stream.target_total_txs = 45'000;
  config.stream.mean_interblock_seconds = 15.0;
  config.checkpoint_out =
      ::testing::TempDir() + "serve_stop_before_run_checkpoint.json";
  mvcom::pipeline::ServeSession session(config);
  session.request_stop();
  std::size_t seen = 0;
  const mvcom::pipeline::ServeSummary summary =
      session.run([&](const EpochReport&) { ++seen; });
  EXPECT_EQ(seen, 0u);
  EXPECT_TRUE(summary.totals.stopped_early);
  EXPECT_EQ(summary.totals.epochs_run, 0u);
  EXPECT_EQ(summary.totals.committed_txs, 0u);
  EXPECT_TRUE(summary.chain_valid);
  EXPECT_TRUE(summary.artifacts_valid);
  EXPECT_EQ(summary.checkpoints_written, 1u);  // the final, genesis only
}

TEST(ServeSessionGap, MetricsAndTraceCarryTheEpochGap) {
  mvcom::pipeline::ServeConfig config;
  config.pipeline = small_config();
  config.stream.num_blocks = 90;
  config.stream.target_total_txs = 45'000;
  config.stream.mean_interblock_seconds = 15.0;
  config.trace_out = ::testing::TempDir() + "serve_gap_trace.json";
  mvcom::pipeline::ServeSession session(config);
  double last_gap = 0.0;
  const mvcom::pipeline::ServeSummary summary =
      session.run([&](const EpochReport& r) {
        last_gap = mvcom::core::relative_gap(r.utility_bound, r.utility);
      });
  ASSERT_TRUE(summary.artifacts_valid);
  std::ifstream trace_file(config.trace_out);
  const std::string trace((std::istreambuf_iterator<char>(trace_file)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"pipeline/epoch\""), std::string::npos);
  EXPECT_NE(trace.find("\"gap\""), std::string::npos);

  const std::string text = mvcom::obs::to_prometheus_text(session.metrics());
  EXPECT_NE(text.find("mvcom_pipeline_epoch_gap"), std::string::npos);
  bool found = false;
  for (const auto& m : session.metrics().snapshot()) {
    if (m.name != "mvcom_pipeline_epoch_gap") continue;
    found = true;
    EXPECT_EQ(m.value, last_gap);  // the latest committed epoch's gap
  }
  EXPECT_TRUE(found);
  EXPECT_GE(last_gap, 0.0);
}

TEST(PipelineChain, EveryEpochExtendsTheRootChain) {
  const Trace trace = small_trace();
  EpochPipeline pipe(trace, small_config());
  const PipelineTotals totals = pipe.run();
  EXPECT_EQ(pipe.chain().size(), totals.epochs_run + 1);
  EXPECT_EQ(pipe.chain().total_txs(), totals.committed_txs);
  EXPECT_TRUE(pipe.chain().validate_full());
}

// --- Decision policy ---------------------------------------------------------

Selection dp_policy(const EpochInstance& instance) {
  return mvcom::baselines::DynamicProgramming().solve(instance).best;
}

Selection all_ones(const EpochInstance& instance) {
  return Selection(instance.size(), 1);
}

TEST(PipelinePolicy, DpPolicyNeverDependsOnDepthOrWorkers) {
  const Trace trace = small_trace();
  PipelineConfig base = small_config();
  const RunRecord ref = run_pipeline(trace, base, dp_policy);
  ASSERT_EQ(ref.reports.size(), base.epochs);
  for (const EpochReport& r : ref.reports) {
    SCOPED_TRACE("epoch " + std::to_string(r.epoch));
    // A policy epoch reports the no-SE values beside its utility and bound.
    EXPECT_TRUE(r.feasible);
    EXPECT_FALSE(r.certified);
    EXPECT_TRUE(std::isnan(r.warm_seed_utility));
    EXPECT_EQ(r.se_iterations, 0u);
    EXPECT_GE(r.utility_bound, r.utility - 1e-9 * std::fabs(r.utility));
  }
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " workers=" + std::to_string(workers));
      PipelineConfig config = base;
      config.overlap_depth = depth;
      config.workers = workers;
      const RunRecord got = run_pipeline(trace, config, dp_policy);
      ASSERT_EQ(got.reports.size(), ref.reports.size());
      for (std::size_t e = 0; e < ref.reports.size(); ++e) {
        EXPECT_EQ(got.reports[e].event_order_digest,
                  ref.reports[e].event_order_digest)
            << "epoch " << e;
        EXPECT_EQ(got.reports[e].utility, ref.reports[e].utility)
            << "epoch " << e;
      }
      EXPECT_EQ(got.totals.digest, ref.totals.digest);
    }
  }
}

TEST(PipelinePolicy, AllOnesAtFullCapacityCommitsEveryIngestedTx) {
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.capacity_fraction = 1.0;
  const RunRecord rec = run_pipeline(trace, config, all_ones);
  EXPECT_EQ(rec.totals.ingested_txs, trace.total_txs());
  EXPECT_EQ(rec.totals.committed_txs, rec.totals.ingested_txs);
  EXPECT_EQ(rec.totals.pending_txs, 0u);
  EXPECT_EQ(rec.totals.max_shard_carries, 0u);
  for (const EpochReport& r : rec.reports) {
    EXPECT_EQ(r.shards_committed, r.shards_pending) << "epoch " << r.epoch;
  }
}

TEST(PipelinePolicy, MisSizedOrInfeasibleSelectionsThrow) {
  const Trace trace = small_trace();
  const DecisionPolicy one_extra = [](const EpochInstance& instance) {
    return Selection(instance.size() + 1, 0);
  };
  // At 0.6 of the pending TXs, taking every shard breaks Eq. (4).
  const DecisionPolicy over_capacity = all_ones;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    PipelineConfig config = small_config();
    config.overlap_depth = depth;
    config.workers = 2;
    for (const DecisionPolicy& policy : {one_extra, over_capacity}) {
      EpochPipeline pipe(trace, config);
      pipe.set_policy(policy);
      std::size_t committed_epochs = 0;
      EXPECT_THROW(pipe.run([&](const EpochReport&) { ++committed_epochs; }),
                   std::logic_error);
      EXPECT_EQ(committed_epochs, 0u);
      EXPECT_EQ(pipe.chain().size(), 1u);  // genesis only
    }
  }
}

TEST(PipelinePolicy, EmptySelectionCarriesEveryShard) {
  const Trace trace = small_trace();
  const RunRecord rec =
      run_pipeline(trace, small_config(),
                   [](const EpochInstance&) { return Selection{}; });
  ASSERT_EQ(rec.reports.size(), small_config().epochs);
  for (const EpochReport& r : rec.reports) {
    SCOPED_TRACE("epoch " + std::to_string(r.epoch));
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.shards_committed, 0u);
    EXPECT_EQ(r.committed_txs, 0u);
  }
  EXPECT_EQ(rec.totals.committed_txs, 0u);
  EXPECT_EQ(rec.totals.ingested_txs, trace.total_txs());
  EXPECT_EQ(rec.totals.ingested_txs,
            rec.totals.committed_txs + rec.totals.pending_txs);
  EXPECT_EQ(rec.totals.max_shard_carries, small_config().epochs);
}

}  // namespace
