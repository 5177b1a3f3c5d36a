// Unit tests for txn/xshard — conflict-aware assembly and the scheduling
// baselines. The heavy lifting is invariant replay: every scheduler claim
// (capacity, locks, deadlines) is re-checked from the outcome ledger alone,
// and the ledger digest is exercised as the replay witness it is.

#include "txn/xshard/assembler.hpp"
#include "txn/xshard/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "txn/accounts/model.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::txn::AccountEpoch;
using mvcom::txn::AccountModelConfig;
using mvcom::txn::AccountTx;
using mvcom::txn::AccountTxGenerator;
using mvcom::txn::Assembly;
using mvcom::txn::AssemblerPolicy;
using mvcom::txn::home_shard;
using mvcom::txn::SchedulerPolicy;
using mvcom::txn::TxClass;
using mvcom::txn::XShardConfig;

AccountModelConfig small_model() {
  AccountModelConfig config;
  config.num_accounts = 5'000;
  config.num_shards = 8;
  config.txs_per_epoch = 3'000;
  config.cross_shard_ratio = 0.3;
  return config;
}

XShardConfig small_xshard() {
  XShardConfig config;
  config.num_shards = 8;
  config.rounds_per_epoch = 32;
  config.shard_round_capacity = 16;
  return config;
}

AccountEpoch make_epoch(std::uint64_t seed = 7, std::size_t index = 0) {
  return AccountTxGenerator(small_model()).epoch_keyed(seed, index);
}

/// Distinct shards the TX touches besides `placement`.
std::vector<std::uint32_t> remote_shards(const AccountTx& tx,
                                         std::uint32_t placement,
                                         std::uint32_t num_shards) {
  std::vector<std::uint32_t> remotes;
  tx.for_each_account([&](std::uint32_t account, bool /*write*/) {
    const std::uint32_t shard = home_shard(account, num_shards);
    if (shard != placement &&
        std::find(remotes.begin(), remotes.end(), shard) == remotes.end()) {
      remotes.push_back(shard);
    }
  });
  return remotes;
}

TEST(AssemblerTest, ConflictAwarePlacesAtMajorityHomeShard) {
  const AccountEpoch epoch = make_epoch();
  Rng rng(1);
  const Assembly assembly =
      mvcom::txn::assemble(epoch, 8, AssemblerPolicy::kConflictAware, rng);
  ASSERT_EQ(assembly.placement.size(), epoch.txs.size());
  for (std::size_t t = 0; t < epoch.txs.size(); ++t) {
    const std::uint32_t placement = assembly.placement[t];
    ASSERT_LT(placement, 8u);
    // Count touched-account homes: no other shard may strictly beat the
    // chosen one (ties are broken by load then id, both valid majorities).
    std::map<std::uint32_t, int> tally;
    epoch.txs[t].for_each_account(
        [&](std::uint32_t account, bool /*write*/) {
          ++tally[home_shard(account, 8)];
        });
    ASSERT_TRUE(tally.count(placement) > 0)
        << "tx " << epoch.txs[t].tx_id << " placed off every touched shard";
    for (const auto& [shard, count] : tally) {
      EXPECT_LE(count, tally[placement])
          << "tx " << epoch.txs[t].tx_id << ": shard " << shard
          << " outweighs placement " << placement;
    }
  }
}

TEST(AssemblerTest, RatioZeroAssemblesFullyIntra) {
  AccountModelConfig model = small_model();
  model.cross_shard_ratio = 0.0;
  const AccountEpoch epoch = AccountTxGenerator(model).epoch_keyed(7, 0);
  Rng rng(1);
  const Assembly assembly =
      mvcom::txn::assemble(epoch, 8, AssemblerPolicy::kConflictAware, rng);
  EXPECT_EQ(assembly.cross_txs, 0u);
  EXPECT_EQ(assembly.total_legs, epoch.txs.size());
}

TEST(AssemblerTest, LegAccountingMatchesPlacement) {
  const AccountEpoch epoch = make_epoch();
  for (const auto policy :
       {AssemblerPolicy::kConflictAware, AssemblerPolicy::kRandomOblivious}) {
    Rng rng(5);
    const Assembly assembly = mvcom::txn::assemble(epoch, 8, policy, rng);
    std::uint64_t legs = 0, cross = 0;
    for (std::size_t t = 0; t < epoch.txs.size(); ++t) {
      const auto remotes = remote_shards(epoch.txs[t], assembly.placement[t], 8);
      legs += 1 + remotes.size();
      cross += remotes.empty() ? 0u : 1u;
    }
    EXPECT_EQ(assembly.total_legs, legs) << mvcom::txn::to_string(policy);
    EXPECT_EQ(assembly.cross_txs, cross) << mvcom::txn::to_string(policy);
  }
}

TEST(AssemblerTest, ConflictAwareNeverPaysMoreLegsThanOblivious) {
  // Per-TX the conflict-aware arm minimizes remote legs, so in aggregate it
  // can never need more legs than random placement of the same epoch.
  const AccountEpoch epoch = make_epoch();
  Rng aware_rng(1);
  Rng oblivious_rng(1);
  const Assembly aware = mvcom::txn::assemble(
      epoch, 8, AssemblerPolicy::kConflictAware, aware_rng);
  const Assembly oblivious = mvcom::txn::assemble(
      epoch, 8, AssemblerPolicy::kRandomOblivious, oblivious_rng);
  EXPECT_LT(aware.total_legs, oblivious.total_legs);
  EXPECT_LT(aware.cross_txs, oblivious.cross_txs);
}

TEST(SchedulerTest, TalliesAreInternallyConsistent) {
  const AccountEpoch epoch = make_epoch();
  const XShardConfig config = small_xshard();
  const auto result = mvcom::txn::run_epoch(epoch, config, 7);
  const auto& out = result.outcome;
  ASSERT_EQ(out.tx_outcomes.size(), epoch.txs.size());
  ASSERT_EQ(out.shards.size(), config.num_shards);
  EXPECT_EQ(out.committed_txs + out.deferred_txs, epoch.txs.size());
  EXPECT_EQ(out.committed_txs, out.intra_txs + out.cross_txs);
  std::uint64_t intra = 0, cross = 0, deferred = 0;
  for (const auto& shard : out.shards) {
    intra += shard.intra_committed;
    cross += shard.cross_committed;
    deferred += shard.deferred;
  }
  EXPECT_EQ(intra, out.intra_txs);
  EXPECT_EQ(cross, out.cross_txs);
  EXPECT_EQ(deferred, out.deferred_txs);
  EXPECT_LE(out.rounds_used, config.rounds_per_epoch);
  EXPECT_GT(out.committed_txs, 0u);
  EXPECT_GT(out.cross_txs, 0u);  // ratio 0.3 must produce 2-phase commits
}

TEST(SchedulerTest, CapacityAndLockInvariantsReplayFromTheLedger) {
  const AccountEpoch epoch = make_epoch();
  XShardConfig config = small_xshard();
  config.shard_round_capacity = 4;  // tight, so capacity actually binds
  for (const auto policy :
       {SchedulerPolicy::kGreedyColoring, SchedulerPolicy::kDynamicDeadline}) {
    config.scheduler = policy;
    const auto result = mvcom::txn::run_epoch(epoch, config, 7);
    const auto& out = result.outcome;
    // Replay the capacity grid from the per-TX outcomes alone.
    std::vector<std::uint64_t> used(
        static_cast<std::size_t>(config.num_shards) * config.rounds_per_epoch,
        0);
    // Account locks: per account, the committed intervals [r, r+span) with
    // their access mode — writer-exclusive, reader-shared.
    struct Hold {
      std::uint32_t begin, end;
      bool write;
    };
    std::map<std::uint32_t, std::vector<Hold>> holds;
    for (std::size_t t = 0; t < epoch.txs.size(); ++t) {
      const auto& oc = out.tx_outcomes[t];
      if (oc.cls == TxClass::kDeferred) continue;
      const auto remotes = remote_shards(epoch.txs[t], oc.shard,
                                         config.num_shards);
      EXPECT_EQ(oc.cls == TxClass::kCross, !remotes.empty());
      const std::uint32_t span = remotes.empty() ? 1 : 2;
      ASSERT_LE(oc.round + span, config.rounds_per_epoch);
      used[static_cast<std::size_t>(oc.shard) * config.rounds_per_epoch +
           oc.round] += 1;
      for (const std::uint32_t q : remotes) {
        used[static_cast<std::size_t>(q) * config.rounds_per_epoch + oc.round +
             1] += 1;
      }
      epoch.txs[t].for_each_account([&](std::uint32_t account, bool write) {
        holds[account].push_back({oc.round, oc.round + span, write});
      });
    }
    for (const std::uint64_t legs : used) {
      EXPECT_LE(legs, config.shard_round_capacity)
          << mvcom::txn::to_string(policy);
    }
    for (const auto& [account, intervals] : holds) {
      for (std::size_t i = 0; i < intervals.size(); ++i) {
        for (std::size_t j = i + 1; j < intervals.size(); ++j) {
          const bool overlap = intervals[i].begin < intervals[j].end &&
                               intervals[j].begin < intervals[i].end;
          if (overlap) {
            EXPECT_FALSE(intervals[i].write || intervals[j].write)
                << "conflicting lock on account " << account << " under "
                << mvcom::txn::to_string(policy);
          }
        }
      }
    }
  }
}

TEST(SchedulerTest, DynamicSchedulerHonorsArrivalAndDeadline) {
  const AccountEpoch epoch = make_epoch();
  XShardConfig config = small_xshard();
  config.scheduler = SchedulerPolicy::kDynamicDeadline;
  config.deadline_slack_rounds = 6;
  const auto result = mvcom::txn::run_epoch(epoch, config, 7);
  for (std::size_t t = 0; t < epoch.txs.size(); ++t) {
    const auto& oc = result.outcome.tx_outcomes[t];
    if (oc.cls == TxClass::kDeferred) continue;
    const double frac = (epoch.txs[t].timestamp - epoch.window_start) /
                        (epoch.window_end - epoch.window_start);
    std::uint32_t arrival = static_cast<std::uint32_t>(
        std::clamp(frac, 0.0, 1.0) *
        static_cast<double>(config.rounds_per_epoch));
    arrival = std::min(arrival, config.rounds_per_epoch - 1);
    EXPECT_GE(oc.round, arrival) << "tx " << epoch.txs[t].tx_id;
    EXPECT_LE(oc.round, arrival + config.deadline_slack_rounds)
        << "tx " << epoch.txs[t].tx_id;
  }
}

TEST(SchedulerTest, LedgerDigestIsAReplayWitness) {
  const AccountEpoch epoch = make_epoch();
  const XShardConfig config = small_xshard();
  const auto a = mvcom::txn::run_epoch(epoch, config, 7);
  const auto b = mvcom::txn::run_epoch(epoch, config, 7);
  EXPECT_EQ(a.outcome.ledger_digest, b.outcome.ledger_digest);
  // The witness separates the assembler arms…
  XShardConfig oblivious = config;
  oblivious.assembler = AssemblerPolicy::kRandomOblivious;
  EXPECT_NE(a.outcome.ledger_digest,
            mvcom::txn::run_epoch(epoch, oblivious, 7).outcome.ledger_digest);
  // …and the oblivious arm is itself keyed: same seed replays, different
  // seed reshuffles the placement stream.
  EXPECT_EQ(mvcom::txn::run_epoch(epoch, oblivious, 7).outcome.ledger_digest,
            mvcom::txn::run_epoch(epoch, oblivious, 7).outcome.ledger_digest);
  EXPECT_NE(mvcom::txn::run_epoch(epoch, oblivious, 7).outcome.ledger_digest,
            mvcom::txn::run_epoch(epoch, oblivious, 8).outcome.ledger_digest);
}

TEST(SchedulerTest, ConflictAwareDominatesObliviousOnCommits) {
  const AccountEpoch epoch = make_epoch();
  XShardConfig config = small_xshard();
  const auto aware = mvcom::txn::run_epoch(epoch, config, 7);
  config.assembler = AssemblerPolicy::kRandomOblivious;
  const auto oblivious = mvcom::txn::run_epoch(epoch, config, 7);
  EXPECT_GT(aware.outcome.committed_txs, oblivious.outcome.committed_txs);
}

TEST(SchedulerTest, RejectsDegenerateConfigs) {
  const AccountEpoch epoch = make_epoch();
  XShardConfig config = small_xshard();
  config.rounds_per_epoch = 0;
  EXPECT_THROW(mvcom::txn::run_epoch(epoch, config, 7), std::invalid_argument);
  // A mismatched assembly is rejected too.
  Assembly empty;
  EXPECT_THROW(mvcom::txn::schedule(epoch, empty, small_xshard()),
               std::invalid_argument);
}

}  // namespace
