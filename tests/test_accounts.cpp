// Unit tests for txn/accounts — the account-based traffic generator:
// keyed-stream purity, structural invariants of the generated TXs, and the
// behavior of the workload knobs (cross-shard ratio, Zipf skew, bursts).

#include "txn/accounts/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

namespace {

using mvcom::txn::AccountEpoch;
using mvcom::txn::AccountModelConfig;
using mvcom::txn::AccountTx;
using mvcom::txn::AccountTxGenerator;
using mvcom::txn::home_shard;
using mvcom::txn::kMaxExtraReads;
using mvcom::txn::kMaxExtraWrites;

AccountModelConfig small_config() {
  AccountModelConfig config;
  config.num_accounts = 5'000;
  config.num_shards = 10;
  config.txs_per_epoch = 2'000;
  return config;
}

bool same_tx(const AccountTx& a, const AccountTx& b) {
  return a.tx_id == b.tx_id && a.timestamp == b.timestamp &&
         a.sender == b.sender && a.reads == b.reads && a.writes == b.writes;
}

bool same_epoch(const AccountEpoch& a, const AccountEpoch& b) {
  if (a.epoch_index != b.epoch_index || a.window_start != b.window_start ||
      a.window_end != b.window_end || a.txs.size() != b.txs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.txs.size(); ++i) {
    if (!same_tx(a.txs[i], b.txs[i])) return false;
  }
  return true;
}

/// True when the TX touches any account homed off `shard`.
bool crosses(const AccountTx& tx, std::uint32_t num_shards) {
  const std::uint32_t home = home_shard(tx.sender, num_shards);
  bool cross = false;
  tx.for_each_account([&](std::uint32_t account, bool /*write*/) {
    cross |= home_shard(account, num_shards) != home;
  });
  return cross;
}

TEST(AccountModelTest, EpochKeyedIsPureAndOrderIndependent) {
  const AccountTxGenerator gen(small_config());
  const AccountEpoch third = gen.epoch_keyed(7, 3);
  // Replaying the same (seed, epoch) is bitwise identical…
  EXPECT_TRUE(same_epoch(third, gen.epoch_keyed(7, 3)));
  // …and generating other epochs in between changes nothing: epoch traffic
  // is a pure function of (seed, k), never of generation order.
  (void)gen.epoch_keyed(7, 0);
  (void)gen.epoch_keyed(7, 9);
  EXPECT_TRUE(same_epoch(third, gen.epoch_keyed(7, 3)));
}

TEST(AccountModelTest, SeedsAndEpochsProduceDistinctTraffic) {
  const AccountTxGenerator gen(small_config());
  EXPECT_FALSE(same_epoch(gen.epoch_keyed(7, 0), gen.epoch_keyed(8, 0)));
  const AccountEpoch e0 = gen.epoch_keyed(7, 0);
  const AccountEpoch e1 = gen.epoch_keyed(7, 1);
  ASSERT_EQ(e0.txs.size(), e1.txs.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < e0.txs.size(); ++i) {
    any_diff |= e0.txs[i].sender != e1.txs[i].sender ||
                e0.txs[i].timestamp != e1.txs[i].timestamp;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AccountModelTest, StructuralInvariantsHold) {
  const AccountModelConfig config = small_config();
  const AccountTxGenerator gen(config);
  const AccountEpoch epoch = gen.epoch_keyed(11, 2);
  EXPECT_EQ(epoch.txs.size(), config.txs_per_epoch);
  EXPECT_DOUBLE_EQ(epoch.window_end - epoch.window_start, 1500.0);
  double prev_ts = epoch.window_start;
  for (const AccountTx& tx : epoch.txs) {
    // Timestamp-sorted, inside the epoch window.
    EXPECT_GE(tx.timestamp, prev_ts);
    EXPECT_LT(tx.timestamp, epoch.window_end);
    prev_ts = tx.timestamp;
    // Accounts in range, sender excluded from both sets, no duplicates.
    std::set<std::uint32_t> seen{tx.sender};
    EXPECT_LT(tx.sender, config.num_accounts);
    tx.for_each_account([&](std::uint32_t account, bool /*write*/) {
      EXPECT_LT(account, config.num_accounts);
      if (account != tx.sender) {
        EXPECT_TRUE(seen.insert(account).second)
            << "duplicate account " << account << " in tx " << tx.tx_id;
      }
    });
    EXPECT_LE(tx.reads.size(), kMaxExtraReads);
    EXPECT_LE(tx.writes.size(), kMaxExtraWrites);
  }
}

TEST(AccountModelTest, RatioZeroKeepsEveryTxOnItsHomeShard) {
  AccountModelConfig config = small_config();
  config.cross_shard_ratio = 0.0;
  const AccountTxGenerator gen(config);
  const AccountEpoch epoch = gen.epoch_keyed(13, 0);
  for (const AccountTx& tx : epoch.txs) {
    EXPECT_FALSE(crosses(tx, config.num_shards)) << "tx " << tx.tx_id;
  }
}

TEST(AccountModelTest, CrossShardRatioKnobIsMonotone) {
  double prev_fraction = -1.0;
  for (const double ratio : {0.0, 0.3, 0.8}) {
    AccountModelConfig config = small_config();
    config.cross_shard_ratio = ratio;
    const AccountTxGenerator gen(config);
    const AccountEpoch epoch = gen.epoch_keyed(17, 0);
    std::size_t cross = 0;
    for (const AccountTx& tx : epoch.txs) {
      cross += crosses(tx, config.num_shards) ? 1u : 0u;
    }
    const double fraction =
        static_cast<double>(cross) / static_cast<double>(epoch.txs.size());
    EXPECT_GT(fraction, prev_fraction) << "ratio " << ratio;
    prev_fraction = fraction;
  }
}

TEST(AccountModelTest, ZipfSkewConcentratesAccess) {
  // The hottest 1% of accounts should absorb far more of the access mass
  // under skew 1.2 than under a uniform (skew 0) population.
  double shares[2] = {0.0, 0.0};
  int arm = 0;
  for (const double skew : {0.0, 1.2}) {
    AccountModelConfig config = small_config();
    config.zipf_skew = skew;
    const AccountTxGenerator gen(config);
    const AccountEpoch epoch = gen.epoch_keyed(19, 0);
    const std::uint32_t hot_cut = config.num_accounts / 100;
    std::uint64_t total = 0, hot = 0;
    for (const AccountTx& tx : epoch.txs) {
      tx.for_each_account([&](std::uint32_t account, bool /*write*/) {
        ++total;
        // Zipf rank r is spread over shards as account ids; the generator
        // assigns low ids the high ranks, so "hot" is just a low id.
        hot += account < hot_cut ? 1 : 0;
      });
    }
    shares[arm++] = static_cast<double>(hot) / static_cast<double>(total);
  }
  EXPECT_GT(shares[1], 4.0 * shares[0]);
}

TEST(AccountModelTest, BurstsConcentrateArrivals) {
  // A fifth of the TXs land in three sub-windows, each 2 % of the window
  // wide: a 1 % bin inside a burst expects about 4.1 times its uniform
  // share of arrivals, so some bin must hold far more than that share.
  const AccountTxGenerator gen(small_config());
  const AccountEpoch epoch = gen.epoch_keyed(23, 1);
  constexpr std::size_t kBins = 100;
  std::vector<std::size_t> bins(kBins, 0);
  for (const AccountTx& tx : epoch.txs) {
    const double frac = (tx.timestamp - epoch.window_start) /
                        (epoch.window_end - epoch.window_start);
    ++bins[std::min(kBins - 1, static_cast<std::size_t>(frac * kBins))];
  }
  const std::size_t peak = *std::max_element(bins.begin(), bins.end());
  const double uniform_share =
      static_cast<double>(epoch.txs.size()) / static_cast<double>(kBins);
  EXPECT_GT(static_cast<double>(peak), 3.0 * uniform_share);
}

TEST(AccountModelTest, ConstructorValidatesConfig) {
  AccountModelConfig too_few = small_config();
  too_few.num_accounts = too_few.num_shards;  // < 2 per shard
  EXPECT_THROW(AccountTxGenerator{too_few}, std::invalid_argument);
  AccountModelConfig bad_ratio = small_config();
  bad_ratio.cross_shard_ratio = 1.5;
  EXPECT_THROW(AccountTxGenerator{bad_ratio}, std::invalid_argument);
  bad_ratio.cross_shard_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(AccountTxGenerator{bad_ratio}, std::invalid_argument);
  // The generator's Zipf sampler rejects these two.
  AccountModelConfig no_accounts = small_config();
  no_accounts.num_accounts = 0;
  EXPECT_THROW(AccountTxGenerator{no_accounts}, std::invalid_argument);
  AccountModelConfig bad_skew = small_config();
  for (const double skew : {std::numeric_limits<double>::quiet_NaN(), -3.0,
                            std::numeric_limits<double>::infinity()}) {
    bad_skew.zipf_skew = skew;
    EXPECT_THROW(AccountTxGenerator{bad_skew}, std::invalid_argument) << skew;
  }
}

}  // namespace
