#pragma once
// Cross-shard transaction scheduling baselines, after Adhikari & Busch
// ("Fast Transaction Scheduling in Blockchain Sharding"; "On the Efficiency
// of Dynamic Transaction Scheduling in Blockchain Sharding").
//
// Model: an epoch is a budget of R rounds; each shard executes at most C
// transaction *legs* per round. An intra-shard TX costs one leg at its
// placement shard and holds its accounts for one round. A cross-shard TX is
// 2-phase: the home leg at round r, the remote legs at round r+1, with
// account locks held for both rounds — the lock-amplification that makes
// cross-shard traffic expensive. Accounts are reader-shared / writer-
// exclusive. A TX that cannot be scheduled inside the epoch's budget (or,
// for the dynamic scheduler, inside its deadline slack) is *deferred* —
// it consumes no capacity and shrinks its committee's effective s_i.
//
//   kGreedyColoring — the batch baseline: greedily "color" TXs in arrival
//     order with the smallest feasible round, deadline-blind, the whole
//     round budget available. Packs densely; freshness-oblivious.
//   kDynamicDeadline — the online baseline: a TX becomes schedulable at its
//     arrival round and must commit within `deadline_slack_rounds`; later
//     feasible slots are abandoned as deferrals. Respects freshness; defers
//     more under contention.
//
// Every scheduler is a pure deterministic function of (epoch, assembly,
// config): TXs are processed in timestamp order (ties by tx_id), the lock
// table and capacity grids are plain arrays, and the per-TX outcome ledger
// folds into an FNV-1a digest — the replay witness, same contract as
// EpochReport::event_order_digest.

#include <cstdint>
#include <vector>

#include "txn/accounts/model.hpp"
#include "txn/xshard/assembler.hpp"

namespace mvcom::txn {

enum class SchedulerPolicy {
  kGreedyColoring,
  kDynamicDeadline,
};

[[nodiscard]] const char* to_string(SchedulerPolicy policy) noexcept;

/// How one TX left the epoch.
enum class TxClass : std::uint8_t {
  kIntra = 0,     // committed, single leg
  kCross = 1,     // committed, 2-phase home/remote legs
  kDeferred = 2,  // no feasible slot — carries to a later epoch
};

struct XShardConfig {
  std::uint32_t num_shards = 20;
  std::uint32_t rounds_per_epoch = 64;
  /// TX legs one shard can execute per round (Ĉ at round granularity).
  std::uint64_t shard_round_capacity = 64;
  /// Dynamic scheduler: rounds past arrival before a TX is abandoned.
  std::uint32_t deadline_slack_rounds = 16;
  AssemblerPolicy assembler = AssemblerPolicy::kConflictAware;
  SchedulerPolicy scheduler = SchedulerPolicy::kDynamicDeadline;
};

struct TxOutcome {
  TxClass cls = TxClass::kDeferred;
  std::uint32_t shard = 0;  // placement shard
  std::uint32_t round = 0;  // home-leg commit round (0 when deferred)
};

/// Per-committee commit/defer tally — the bridge back to ShardReport: a
/// committee's *effective* s_i is committed(), not everything assembled.
struct ShardTally {
  std::uint32_t committee_id = 0;
  std::uint64_t intra_committed = 0;
  std::uint64_t cross_committed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t legs_used = 0;  // capacity actually consumed here

  [[nodiscard]] std::uint64_t committed() const noexcept {
    return intra_committed + cross_committed;
  }
};

struct ScheduleOutcome {
  std::vector<TxOutcome> tx_outcomes;  // parallel to AccountEpoch::txs
  std::vector<ShardTally> shards;      // one per committee
  std::uint64_t committed_txs = 0;
  std::uint64_t intra_txs = 0;
  std::uint64_t cross_txs = 0;
  std::uint64_t deferred_txs = 0;
  std::uint32_t rounds_used = 0;  // last occupied round + 1
  /// FNV-1a over (tx_id, class, shard, round) in TX order — the commit/
  /// abort/defer ledger's replay witness.
  std::uint64_t ledger_digest = 0;
};

/// Schedules one assembled epoch. Pure and allocation-bounded: O(TXs + S·R).
[[nodiscard]] ScheduleOutcome schedule(const AccountEpoch& epoch,
                                       const Assembly& assembly,
                                       const XShardConfig& config);

/// One epoch end-to-end: assemble under config.assembler (the oblivious
/// arm's placement stream is keyed off (seed, epoch index)), then schedule
/// under config.scheduler.
struct XShardEpoch {
  Assembly assembly;
  ScheduleOutcome outcome;
};
[[nodiscard]] XShardEpoch run_epoch(const AccountEpoch& epoch,
                                    const XShardConfig& config,
                                    std::uint64_t seed);

}  // namespace mvcom::txn
