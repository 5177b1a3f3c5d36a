// Tests for per-transaction cumulative-age accounting (txn/age).

#include "txn/age.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using mvcom::txn::shard_age_profile;
using mvcom::txn::ShardBlocks;
using mvcom::txn::Trace;

Trace tiny_trace() {
  // Three blocks at t = 0, 100, 200 with 10, 20, 30 TXs.
  Trace trace;
  for (int i = 0; i < 3; ++i) {
    mvcom::txn::BlockRecord b;
    b.block_id = static_cast<std::uint64_t>(i);
    b.btime = 100.0 * i;
    b.tx_count = static_cast<std::uint64_t>(10 * (i + 1));
    b.bhash = "h" + std::to_string(i);
    trace.blocks.push_back(b);
  }
  return trace;
}

TEST(ShardAgeProfileTest, HandComputedAges) {
  const Trace trace = tiny_trace();
  ShardBlocks shard;
  shard.block_indices = {0, 2};
  // Commit at t=300: block0's 10 TXs waited 300 each, block2's 30 waited 100.
  const auto profile = shard_age_profile(trace, shard, 300.0);
  EXPECT_EQ(profile.tx_count, 40u);
  EXPECT_DOUBLE_EQ(profile.total_age, 10 * 300.0 + 30 * 100.0);
  EXPECT_DOUBLE_EQ(profile.max_age, 300.0);
  EXPECT_DOUBLE_EQ(profile.mean_age(), 6000.0 / 40.0);
}

TEST(ShardAgeProfileTest, FutureBlocksClampToZeroAge) {
  const Trace trace = tiny_trace();
  ShardBlocks shard;
  shard.block_indices = {2};  // btime 200
  const auto profile = shard_age_profile(trace, shard, 150.0);
  EXPECT_DOUBLE_EQ(profile.total_age, 0.0);
  EXPECT_EQ(profile.tx_count, 30u);
}

TEST(ShardAgeProfileTest, EmptyShardIsZero) {
  const Trace trace = tiny_trace();
  const auto profile = shard_age_profile(trace, ShardBlocks{}, 500.0);
  EXPECT_EQ(profile.tx_count, 0u);
  EXPECT_DOUBLE_EQ(profile.mean_age(), 0.0);
}

TEST(AgeMonotonicityTest, LaterCommitMeansOlderTxs) {
  // The motivation behind MVCom: every second the final committee waits for
  // a straggler, every already-submitted TX ages by that second.
  const Trace trace = tiny_trace();
  ShardBlocks shard;
  shard.block_indices = {0, 1, 2};
  const auto early = shard_age_profile(trace, shard, 300.0);
  const auto late = shard_age_profile(trace, shard, 900.0);
  EXPECT_DOUBLE_EQ(late.total_age - early.total_age,
                   600.0 * static_cast<double>(early.tx_count));
}

}  // namespace
