// Extension bench — multi-epoch selection quality with *true per-TX ages*.
//
// The paper's abstract: throughput degrades because of the transactions'
// cumulative age. Each policy runs six consecutive epochs of EpochPipeline,
// the engine `mvcom serve` runs, on a trace whose epoch window is
// comparable to the two-phase latencies, so scheduling matters. A committed
// TX's age runs from its block's btime to the commit of its final block,
// after stage 4's discrete-event PBFT round. Refused shards carry over with
// the Fig. 3 rebase against the realized epoch boundary: nothing is
// dropped, only deferred, and deferral shows in the ages.
//
// Three final-committee policies, the last two under the SAME capacity
// (Ĉ = 60 % of the pending TXs):
//   wait-for-all — every shard, at Ĉ = all pending TXs;
//   DP (throughput) — packs the most TXs into Ĉ, blind to freshness;
//   MVCom (SE) — no policy: the pipeline's own stage B, which maximizes
//     Eq. (2).
// The expected shape is a PASS/FAIL verdict (the process exits 1 on FAIL):
//   * wait-for-all commits every ingested TX and defers none;
//   * MVCom's committed volume is within 1 % of DP's;
//   * MVCom's mean per-TX age is below DP's — the Fig.-10 valuable-degree
//     story at per-transaction granularity.

#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/dynamic_programming.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "txn/accounts/model.hpp"
#include "txn/trace_generator.hpp"
#include "txn/xshard/scheduler.hpp"

namespace {

using mvcom::bench::print_pass;
using mvcom::common::Rng;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;
using mvcom::pipeline::PipelineTotals;
using mvcom::txn::Trace;

constexpr std::uint64_t kSeeds = 3;

double mean_age(const PipelineTotals& totals) {
  return totals.total_age / static_cast<double>(totals.committed_txs);
}

/// One policy's totals over pipelines seeded 10, 20 and 30 (20 committees,
/// 6 epochs each; an empty policy runs the default stage B). Prints its
/// table row as per-run means.
PipelineTotals run_arm(const Trace& trace, const char* name,
                       double capacity_fraction,
                       const mvcom::pipeline::DecisionPolicy& policy) {
  PipelineTotals sum;
  for (std::uint64_t seed = 10; seed <= 10 * kSeeds; seed += 10) {
    mvcom::pipeline::PipelineConfig config;
    config.committees = 20;
    config.epochs = 6;
    config.capacity_fraction = capacity_fraction;
    config.seed = seed;
    mvcom::pipeline::EpochPipeline pipeline(trace, config);
    pipeline.set_policy(policy);
    const PipelineTotals one = pipeline.run();
    sum.ingested_txs += one.ingested_txs;
    sum.committed_txs += one.committed_txs;
    sum.total_age += one.total_age;
    sum.pending_txs += one.pending_txs;
  }
  std::printf("  %-16s %14llu %16.1f %14llu\n", name,
              static_cast<unsigned long long>(sum.committed_txs / kSeeds),
              mean_age(sum),
              static_cast<unsigned long long>(sum.pending_txs / kSeeds));
  return sum;
}

}  // namespace

int main() {
  Rng trace_rng(2016);
  mvcom::txn::TraceGeneratorConfig tc;
  // Compressed timescale: blocks every ~15 s so an epoch window (~1500 s)
  // is commensurate with the two-phase latencies (~650 s) — the regime
  // where committee scheduling can move per-TX ages at all.
  tc.num_blocks = 600;
  tc.target_total_txs = 600'000;
  tc.mean_interblock_seconds = 15.0;
  const Trace trace = mvcom::txn::generate_trace(tc, trace_rng);

  mvcom::bench::print_header(
      "Extension",
      "multi-epoch per-TX ages under equal capacity (6 epochs, C=60%)");
  std::printf("  %-16s %14s %16s %14s\n", "policy", "TXs committed",
              "mean TX age(s)", "TXs deferred");
  const PipelineTotals wait_all =
      run_arm(trace, "wait-for-all", 1.0, [](const EpochInstance& instance) {
        return Selection(instance.size(), 1);
      });
  // The throughput objective; its selection is empty when infeasible.
  const PipelineTotals dp =
      run_arm(trace, "DP (capacity)", 0.6, [](const EpochInstance& instance) {
        return mvcom::baselines::DynamicProgramming().solve(instance).best;
      });
  const PipelineTotals mvcom = run_arm(trace, "MVCom (SE)", 0.6, {});
  const bool drains = wait_all.committed_txs == wait_all.ingested_txs &&
                      wait_all.pending_txs == 0;
  const bool same_volume =
      std::fabs(static_cast<double>(mvcom.committed_txs) -
                static_cast<double>(dp.committed_txs)) <=
      0.01 * static_cast<double>(dp.committed_txs);
  const bool younger = mean_age(mvcom) < mean_age(dp);
  print_pass("wait-for-all commits every ingested TX and defers none", drains);
  print_pass("MVCom commits within 1% of DP's volume under the same capacity",
             same_volume);
  print_pass("MVCom's mean per-TX age is below DP's", younger);

  // --- Account-model deferred carry. The pipeline has no account mode
  // (DESIGN.md §13), so this section is the only code that runs the account
  // model's carry: deferred cross-shard TXs carry into the next epoch's
  // scheduling queue with their original timestamps (arrival round 0 after
  // the clamp), and we measure how long they wait — the per-TX age story of
  // the main bench, at account granularity.
  mvcom::bench::print_header(
      "Account-model carry",
      "deferred cross-shard TXs re-queued across epochs, conflict-aware arm");
  {
    mvcom::txn::AccountModelConfig model;
    model.num_accounts = 50'000;
    model.num_shards = 20;
    model.txs_per_epoch = 20'000;
    model.cross_shard_ratio = 0.3;
    mvcom::txn::XShardConfig xc;
    xc.num_shards = model.num_shards;
    const mvcom::txn::AccountTxGenerator generator(model);
    constexpr std::uint64_t kCarrySeed = 7;
    constexpr std::size_t kCarryEpochs = 6;

    struct QueuedTx {
      mvcom::txn::AccountTx tx;
      std::size_t born = 0;  // epoch the TX first arrived in
    };
    std::vector<QueuedTx> backlog;
    std::uint64_t committed = 0, committed_carried = 0, ingested = 0;
    std::uint64_t defer_epoch_sum = 0;  // Σ (commit epoch − born), committed
    std::printf("  %-6s %10s %10s %10s %10s\n", "epoch", "fresh", "carried",
                "committed", "backlog");
    for (std::size_t e = 0; e < kCarryEpochs; ++e) {
      const auto fresh = generator.epoch_keyed(kCarrySeed, e);
      ingested += fresh.txs.size();
      mvcom::txn::AccountEpoch merged;
      merged.epoch_index = fresh.epoch_index;
      merged.window_start = fresh.window_start;
      merged.window_end = fresh.window_end;
      std::vector<std::size_t> born;
      merged.txs.reserve(backlog.size() + fresh.txs.size());
      born.reserve(backlog.size() + fresh.txs.size());
      for (const QueuedTx& q : backlog) {
        merged.txs.push_back(q.tx);
        born.push_back(q.born);
      }
      for (const auto& tx : fresh.txs) {
        merged.txs.push_back(tx);
        born.push_back(e);
      }
      // Carried timestamps predate this window, so the backlog prefix is
      // already in (timestamp, tx_id) order and fresh TXs arrive sorted —
      // the merged queue keeps the scheduler's arrival-order contract.
      const std::size_t carried_in = backlog.size();
      const auto result = mvcom::txn::run_epoch(merged, xc, kCarrySeed);
      backlog.clear();
      for (std::size_t t = 0; t < merged.txs.size(); ++t) {
        if (result.outcome.tx_outcomes[t].cls ==
            mvcom::txn::TxClass::kDeferred) {
          backlog.push_back({merged.txs[t], born[t]});
        } else {
          ++committed;
          if (born[t] < e) ++committed_carried;
          defer_epoch_sum += e - born[t];
        }
      }
      std::printf("  %-6zu %10zu %10zu %10llu %10zu\n", e, fresh.txs.size(),
                  carried_in,
                  static_cast<unsigned long long>(result.outcome.committed_txs),
                  backlog.size());
    }
    const double mean_defer =
        committed == 0 ? 0.0
                       : static_cast<double>(defer_epoch_sum) /
                             static_cast<double>(committed);
    std::printf("  carry total: %llu/%llu TXs committed (%llu after a carry, "
                "mean wait %.2f epochs), backlog %zu\n",
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(ingested),
                static_cast<unsigned long long>(committed_carried), mean_defer,
                backlog.size());
  }

  return drains && same_volume && younger ? 0 : 1;
}
