#include "txn/xshard/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/fnv.hpp"

namespace mvcom::txn {

namespace {

using common::fnv1a_mix;
using common::kFnv1aBasis;

/// Keyed stream salt for run_epoch's oblivious placement. Far from both the
/// pipeline's 4·epoch+slot indices and the account generator's 2^40 band.
constexpr std::uint64_t kObliviousStreamBase = std::uint64_t{1} << 41;

}  // namespace

const char* to_string(SchedulerPolicy policy) noexcept {
  switch (policy) {
    case SchedulerPolicy::kGreedyColoring:
      return "greedy-coloring";
    case SchedulerPolicy::kDynamicDeadline:
      return "dynamic-deadline";
  }
  return "unknown";
}

ScheduleOutcome schedule(const AccountEpoch& epoch, const Assembly& assembly,
                         const XShardConfig& config) {
  const std::uint32_t s_count = config.num_shards;
  const std::uint32_t rounds = config.rounds_per_epoch;
  if (s_count == 0 || rounds == 0 || config.shard_round_capacity == 0) {
    throw std::invalid_argument(
        "schedule: shards, rounds, and capacity must be >= 1");
  }
  if (assembly.placement.size() != epoch.txs.size()) {
    throw std::invalid_argument(
        "schedule: assembly does not match the epoch (placement size)");
  }

  ScheduleOutcome out;
  out.tx_outcomes.resize(epoch.txs.size());
  out.shards.resize(s_count);
  for (std::uint32_t i = 0; i < s_count; ++i) {
    out.shards[i].committee_id = i;
  }

  // Reader-shared / writer-exclusive lock table, indexed by account id.
  // write_free[a]: first round past the last write lock; read_high[a]:
  // first round past the last read lock. A write needs both clear, a read
  // only write_free.
  std::uint32_t max_account = 0;
  for (const AccountTx& tx : epoch.txs) {
    tx.for_each_account([&](std::uint32_t account, bool /*write*/) {
      max_account = std::max(max_account, account);
    });
  }
  std::vector<std::uint32_t> write_free(max_account + 1, 0);
  std::vector<std::uint32_t> read_high(max_account + 1, 0);
  // Legs executed per (shard, round).
  std::vector<std::uint64_t> used(static_cast<std::size_t>(s_count) * rounds, 0);
  const auto used_at = [&](std::uint32_t shard, std::uint32_t r)
      -> std::uint64_t& { return used[static_cast<std::size_t>(shard) * rounds + r]; };

  std::vector<std::uint32_t> remotes;  // distinct non-placement shards, per TX
  const bool online = config.scheduler == SchedulerPolicy::kDynamicDeadline;
  out.ledger_digest = kFnv1aBasis;

  for (std::size_t t = 0; t < epoch.txs.size(); ++t) {
    const AccountTx& tx = epoch.txs[t];
    const std::uint32_t placement = assembly.placement[t];
    ShardTally& tally = out.shards[placement];

    remotes.clear();
    std::uint32_t lock_bound = 0;  // earliest round every account is free
    tx.for_each_account([&](std::uint32_t account, bool write) {
      const std::uint32_t shard = home_shard(account, s_count);
      if (shard != placement &&
          std::find(remotes.begin(), remotes.end(), shard) == remotes.end()) {
        remotes.push_back(shard);
      }
      std::uint32_t free_at = write_free[account];
      if (write) free_at = std::max(free_at, read_high[account]);
      lock_bound = std::max(lock_bound, free_at);
    });
    const bool cross = !remotes.empty();
    const std::uint32_t span = cross ? 2 : 1;

    // Schedulable window: the greedy colorer sees the whole budget; the
    // dynamic scheduler starts at the TX's arrival round and gives up
    // `deadline_slack_rounds` later.
    std::uint32_t arrival = 0;
    if (online) {
      const double frac =
          (tx.timestamp - epoch.window_start) /
          (epoch.window_end - epoch.window_start);
      arrival = static_cast<std::uint32_t>(
          std::clamp(frac, 0.0, 1.0) * static_cast<double>(rounds));
      arrival = std::min(arrival, rounds - 1);
    }
    bool committed = false;
    std::uint32_t r = std::max(arrival, lock_bound);
    // The home leg must leave room for the full span: a cross TX cannot
    // start in the budget's last round.
    const std::uint32_t last_start = span <= rounds ? rounds - span : 0;
    std::uint32_t deadline = last_start;
    if (online && arrival + config.deadline_slack_rounds < deadline) {
      deadline = arrival + config.deadline_slack_rounds;
    }
    for (; span <= rounds && r <= deadline; ++r) {
      if (used_at(placement, r) >= config.shard_round_capacity) continue;
      bool fits = true;
      for (const std::uint32_t q : remotes) {
        if (used_at(q, r + 1) >= config.shard_round_capacity) {
          fits = false;
          break;
        }
      }
      if (fits) {
        committed = true;
        break;
      }
    }

    TxOutcome& result = out.tx_outcomes[t];
    result.shard = placement;
    if (committed) {
      result.cls = cross ? TxClass::kCross : TxClass::kIntra;
      result.round = r;
      used_at(placement, r) += 1;
      tally.legs_used += 1;
      for (const std::uint32_t q : remotes) {
        used_at(q, r + 1) += 1;
        out.shards[q].legs_used += 1;
      }
      tx.for_each_account([&](std::uint32_t account, bool write) {
        if (write) {
          write_free[account] = std::max(write_free[account], r + span);
        } else {
          read_high[account] = std::max(read_high[account], r + span);
        }
      });
      if (cross) {
        ++tally.cross_committed;
        ++out.cross_txs;
      } else {
        ++tally.intra_committed;
        ++out.intra_txs;
      }
      ++out.committed_txs;
      out.rounds_used = std::max(out.rounds_used, r + span);
    } else {
      result.cls = TxClass::kDeferred;
      ++tally.deferred;
      ++out.deferred_txs;
    }

    out.ledger_digest = fnv1a_mix(out.ledger_digest, tx.tx_id);
    out.ledger_digest =
        fnv1a_mix(out.ledger_digest, static_cast<std::uint64_t>(result.cls));
    out.ledger_digest = fnv1a_mix(out.ledger_digest, result.shard);
    out.ledger_digest = fnv1a_mix(out.ledger_digest, result.round);
  }
  return out;
}

XShardEpoch run_epoch(const AccountEpoch& epoch, const XShardConfig& config,
                      std::uint64_t seed) {
  common::Rng oblivious = common::Rng::stream(
      seed, kObliviousStreamBase + static_cast<std::uint64_t>(epoch.epoch_index));
  XShardEpoch out;
  out.assembly =
      assemble(epoch, config.num_shards, config.assembler, oblivious);
  out.outcome = schedule(epoch, out.assembly, config);
  return out;
}

}  // namespace mvcom::txn
