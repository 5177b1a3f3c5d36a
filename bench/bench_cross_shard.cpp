// Cross-shard scheduling bench — the account-model ratio sweep (DESIGN.md
// §15). Generates Zipf-skewed account traffic at cross-shard ratios
// {0, 10, 30, 50}%, assembles shards with both arms (conflict-aware vs
// random-oblivious placement), runs the deadline-aware dynamic scheduler,
// and reports committed/deferred tallies per arm. A greedy-coloring row at
// the canonical 30% ratio anchors the scheduler-baseline comparison.
//
// PASS/FAIL criteria (the process exits 1 on FAIL):
//   * monotone degradation — on the conflict-aware arm, committed TXs never
//     increase as the cross-shard ratio grows: more scattered read/write
//     sets mean more legs per TX and more lock conflicts, so throughput can
//     only fall.
//   * assembler dominance — the conflict-aware assembler commits at least
//     as many TXs as random-oblivious placement at EVERY ratio (strictly
//     more summed over the sweep).
//   * determinism — each (ratio, arm) ledger digest is bit-identical across
//     two independent replays of the same epochs.
//
// Sidecar aggregates (BENCH_cross_shard.json):
//   rate_xshard_committed_txs  aggregate committed TXs, conflict-aware arm
//                              over the whole sweep
//   rate_xshard_assembler      assembler+scheduler throughput, TXs
//                              processed per wall-clock second
//   seconds_sweep              wall clock of the full sweep

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "bench_util.hpp"
#include "txn/accounts/model.hpp"
#include "txn/xshard/scheduler.hpp"

namespace {

using mvcom::txn::AccountModelConfig;
using mvcom::txn::AccountTxGenerator;
using mvcom::txn::AssemblerPolicy;
using mvcom::txn::SchedulerPolicy;
using mvcom::txn::XShardConfig;

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kEpochs = 3;

struct ArmResult {
  std::uint64_t committed = 0;
  std::uint64_t intra = 0;
  std::uint64_t cross = 0;
  std::uint64_t deferred = 0;
  std::uint64_t digest = 0;  // FNV fold of the per-epoch ledger digests
  std::uint64_t txs_processed = 0;
};

ArmResult run_arm(const AccountTxGenerator& generator, XShardConfig config,
                  AssemblerPolicy policy, SchedulerPolicy scheduler) {
  config.assembler = policy;
  config.scheduler = scheduler;
  ArmResult arm;
  arm.digest = mvcom::common::kFnv1aBasis;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const auto epoch = generator.epoch_keyed(kSeed, e);
    const auto result = mvcom::txn::run_epoch(epoch, config, kSeed);
    arm.committed += result.outcome.committed_txs;
    arm.intra += result.outcome.intra_txs;
    arm.cross += result.outcome.cross_txs;
    arm.deferred += result.outcome.deferred_txs;
    arm.digest = mvcom::common::fnv1a_mix(arm.digest, result.outcome.ledger_digest);
    arm.txs_processed += epoch.txs.size();
  }
  return arm;
}

void print_pass(const char* criterion, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", criterion);
}

}  // namespace

int main() {
  mvcom::bench::BenchJson json("cross_shard");
  mvcom::bench::print_header(
      "Cross-shard ratio sweep",
      "conflict-aware vs random-oblivious assembly, dynamic-deadline "
      "scheduler");

  AccountModelConfig model;
  model.num_accounts = 50'000;
  model.num_shards = 20;
  model.txs_per_epoch = 20'000;
  XShardConfig xc;
  xc.num_shards = model.num_shards;

  const std::vector<double> ratios = {0.0, 0.1, 0.3, 0.5};
  std::vector<double> aware_committed, oblivious_committed;
  std::vector<double> aware_deferred, aware_cross;
  bool monotone = true, dominates_everywhere = true, deterministic = true;
  double prev_aware = -1.0;
  std::uint64_t aware_total = 0, oblivious_total = 0, txs_processed = 0;

  std::printf("%u accounts on %u shards, %llu TXs/epoch x %zu epochs, skew "
              "%.2f, R=%u rounds, C=%llu legs/shard/round, seed %llu\n",
              model.num_accounts, model.num_shards,
              static_cast<unsigned long long>(model.txs_per_epoch), kEpochs,
              model.zipf_skew, xc.rounds_per_epoch,
              static_cast<unsigned long long>(xc.shard_round_capacity),
              static_cast<unsigned long long>(kSeed));
  std::printf("  %-6s %-16s %10s %10s %9s %9s  %s\n", "ratio", "assembler",
              "committed", "intra", "cross", "deferred", "ledger digest");

  const auto sweep_start = std::chrono::steady_clock::now();
  for (const double ratio : ratios) {
    model.cross_shard_ratio = ratio;
    const AccountTxGenerator generator(model);
    for (const auto policy :
         {AssemblerPolicy::kConflictAware, AssemblerPolicy::kRandomOblivious}) {
      const ArmResult arm = run_arm(generator, xc, policy,
                                    SchedulerPolicy::kDynamicDeadline);
      const ArmResult replay = run_arm(generator, xc, policy,
                                       SchedulerPolicy::kDynamicDeadline);
      deterministic &= arm.digest == replay.digest;
      txs_processed += arm.txs_processed + replay.txs_processed;
      std::printf("  %-6.2f %-16s %10llu %10llu %9llu %9llu  %016llx\n",
                  ratio, mvcom::txn::to_string(policy),
                  static_cast<unsigned long long>(arm.committed),
                  static_cast<unsigned long long>(arm.intra),
                  static_cast<unsigned long long>(arm.cross),
                  static_cast<unsigned long long>(arm.deferred),
                  static_cast<unsigned long long>(arm.digest));
      const double committed = static_cast<double>(arm.committed);
      if (policy == AssemblerPolicy::kConflictAware) {
        if (prev_aware >= 0.0 && committed > prev_aware) monotone = false;
        prev_aware = committed;
        aware_total += arm.committed;
        aware_committed.push_back(committed);
        aware_deferred.push_back(static_cast<double>(arm.deferred));
        aware_cross.push_back(static_cast<double>(arm.cross));
      } else {
        if (committed > aware_committed.back()) dominates_everywhere = false;
        oblivious_total += arm.committed;
        oblivious_committed.push_back(committed);
      }
    }
  }

  // Scheduler-baseline anchor: greedy coloring at the canonical 30% ratio,
  // conflict-aware arm. Deadline-blind batch coloring burns whole-epoch
  // round budget per color class, so it commits less than the online
  // deadline-aware scheduler on the same assembly.
  model.cross_shard_ratio = 0.3;
  const AccountTxGenerator anchor_gen(model);
  const ArmResult greedy = run_arm(anchor_gen, xc, AssemblerPolicy::kConflictAware,
                                   SchedulerPolicy::kGreedyColoring);
  std::printf("  %-6.2f %-16s %10llu %10llu %9llu %9llu  %016llx  "
              "(greedy-coloring baseline)\n",
              0.3, "conflict-aware",
              static_cast<unsigned long long>(greedy.committed),
              static_cast<unsigned long long>(greedy.intra),
              static_cast<unsigned long long>(greedy.cross),
              static_cast<unsigned long long>(greedy.deferred),
              static_cast<unsigned long long>(greedy.digest));
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  txs_processed += greedy.txs_processed;

  const bool dominates =
      dominates_everywhere && aware_total > oblivious_total;
  std::printf("sweep aggregate: conflict-aware %llu vs random-oblivious %llu "
              "committed TXs\n",
              static_cast<unsigned long long>(aware_total),
              static_cast<unsigned long long>(oblivious_total));
  print_pass("committed TXs degrade monotonically with the cross-shard ratio",
             monotone);
  print_pass("conflict-aware assembly dominates random-oblivious at every "
             "ratio (strictly over the sweep)",
             dominates);
  print_pass("ledger digests are bit-identical across replays", deterministic);
  mvcom::bench::print_row("sweep seconds", sweep_seconds);

  json.set_series("ratios", ratios);
  json.set_series("aware_committed_txs", aware_committed);
  json.set_series("oblivious_committed_txs", oblivious_committed);
  json.set_series("aware_deferred_txs", aware_deferred);
  json.set_series("aware_cross_txs", aware_cross);
  json.set("greedy_committed_txs", static_cast<double>(greedy.committed));
  json.set("rate_xshard_committed_txs", static_cast<double>(aware_total));
  json.set("rate_xshard_assembler",
           static_cast<double>(txs_processed) / sweep_seconds);
  json.set("seconds_sweep", sweep_seconds);
  json.set("monotone", monotone ? 1.0 : 0.0);
  json.set("dominates", dominates ? 1.0 : 0.0);
  json.set("deterministic", deterministic ? 1.0 : 0.0);
  json.write();
  return monotone && dominates && deterministic ? 0 : 1;
}
