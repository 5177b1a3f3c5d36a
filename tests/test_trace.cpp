// Tests for the transaction-trace generator, CSV I/O, and workload builder.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "txn/accounts/model.hpp"
#include "txn/trace_generator.hpp"
#include "txn/trace_io.hpp"
#include "txn/workload.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::txn::generate_trace;
using mvcom::txn::load_trace_csv;
using mvcom::txn::sample_two_phase_latency;
using mvcom::txn::ShardFill;
using mvcom::txn::Trace;
using mvcom::txn::TraceGeneratorConfig;
using mvcom::txn::WorkloadConfig;
using mvcom::txn::WorkloadGenerator;
using mvcom::txn::write_trace_csv;

/// A fresh directory of its own per test: mkdtemp picks a name no other
/// test, in this process or another, holds (ctest -j runs cases in parallel
/// processes), so one case's cleanup cannot delete another's files.
class TempDir {
 public:
  TempDir() {
    std::string name =
        (std::filesystem::temp_directory_path() / "mvcom-test-XXXXXX")
            .string();
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + name);
    }
    path_ = name;
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::filesystem::path path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(TraceGeneratorTest, PaperCalibration) {
  // §VI-A: 1378 blocks sampled from the first 1.5M TXs of January 2016.
  Rng rng(1);
  const Trace trace = generate_trace({}, rng);
  EXPECT_EQ(trace.blocks.size(), 1378u);
  EXPECT_EQ(trace.total_txs(), 1'500'000u);
}

TEST(TraceGeneratorTest, BlocksSortedByTimeWithPositiveCounts) {
  Rng rng(2);
  const Trace trace = generate_trace({}, rng);
  for (std::size_t i = 0; i < trace.blocks.size(); ++i) {
    EXPECT_GE(trace.blocks[i].tx_count, 1u);
    EXPECT_EQ(trace.blocks[i].block_id, i);
    if (i > 0) {
      EXPECT_GT(trace.blocks[i].btime, trace.blocks[i - 1].btime);
    }
  }
  EXPECT_GE(trace.blocks.front().btime, 1451606400.0);  // 2016-01-01
}

TEST(TraceGeneratorTest, InterBlockMeanApprox600s) {
  Rng rng(3);
  TraceGeneratorConfig config;
  config.num_blocks = 20000;
  config.target_total_txs = 20'000'000;
  const Trace trace = generate_trace(config, rng);
  const double span = trace.blocks.back().btime - trace.blocks.front().btime;
  EXPECT_NEAR(span / static_cast<double>(trace.blocks.size() - 1), 600.0,
              20.0);
}

TEST(TraceGeneratorTest, HashesAreUniqueHex) {
  Rng rng(4);
  const Trace trace = generate_trace({}, rng);
  std::set<std::string> hashes;
  for (const auto& b : trace.blocks) {
    EXPECT_EQ(b.bhash.size(), 64u);
    hashes.insert(b.bhash);
  }
  EXPECT_EQ(hashes.size(), trace.blocks.size());
}

TEST(TraceGeneratorTest, DeterministicPerSeed) {
  Rng a(5);
  Rng b(5);
  const Trace ta = generate_trace({}, a);
  const Trace tb = generate_trace({}, b);
  ASSERT_EQ(ta.blocks.size(), tb.blocks.size());
  for (std::size_t i = 0; i < ta.blocks.size(); ++i) {
    EXPECT_EQ(ta.blocks[i].tx_count, tb.blocks[i].tx_count);
    EXPECT_EQ(ta.blocks[i].bhash, tb.blocks[i].bhash);
  }
}

TEST(TraceGeneratorTest, RejectsDegenerateConfigs) {
  Rng rng(6);
  TraceGeneratorConfig zero_blocks;
  zero_blocks.num_blocks = 0;
  EXPECT_THROW(generate_trace(zero_blocks, rng), std::invalid_argument);
  TraceGeneratorConfig too_few_txs;
  too_few_txs.num_blocks = 100;
  too_few_txs.target_total_txs = 50;
  EXPECT_THROW(generate_trace(too_few_txs, rng), std::invalid_argument);
}

TEST(TraceIoTest, RoundtripPreservesEverything) {
  Rng rng(7);
  TraceGeneratorConfig config;
  config.num_blocks = 50;
  config.target_total_txs = 50'000;
  const Trace trace = generate_trace(config, rng);
  TempDir dir;
  const auto path = dir.path() / "trace.csv";
  write_trace_csv(trace, path);
  const Trace loaded = load_trace_csv(path);
  ASSERT_EQ(loaded.blocks.size(), trace.blocks.size());
  for (std::size_t i = 0; i < trace.blocks.size(); ++i) {
    EXPECT_EQ(loaded.blocks[i].block_id, trace.blocks[i].block_id);
    EXPECT_EQ(loaded.blocks[i].bhash, trace.blocks[i].bhash);
    EXPECT_EQ(loaded.blocks[i].tx_count, trace.blocks[i].tx_count);
    EXPECT_NEAR(loaded.blocks[i].btime, trace.blocks[i].btime, 1.0);
  }
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(TraceIoTest, AccountTxRoundtripPreservesEverything) {
  mvcom::txn::AccountModelConfig config;
  config.num_accounts = 2'000;
  config.num_shards = 8;
  config.txs_per_epoch = 500;
  config.cross_shard_ratio = 0.4;
  const mvcom::txn::AccountTxGenerator gen(config);
  const auto epoch = gen.epoch_keyed(7, 1);
  TempDir dir;
  const auto path = dir.path() / "accounts.csv";
  mvcom::txn::write_account_txs_csv(epoch.txs, path);
  const auto loaded = mvcom::txn::load_account_txs_csv(path);
  ASSERT_EQ(loaded.size(), epoch.txs.size());
  for (std::size_t i = 0; i < epoch.txs.size(); ++i) {
    EXPECT_EQ(loaded[i].tx_id, epoch.txs[i].tx_id);
    EXPECT_EQ(loaded[i].sender, epoch.txs[i].sender);
    EXPECT_EQ(loaded[i].reads, epoch.txs[i].reads);    // order + content
    EXPECT_EQ(loaded[i].writes, epoch.txs[i].writes);
    EXPECT_NEAR(loaded[i].timestamp, epoch.txs[i].timestamp, 1e-3);
  }
}

TEST(TraceIoTest, AccountTxEmptySetsSurviveTheRoundtrip) {
  std::vector<mvcom::txn::AccountTx> txs(2);
  txs[0].tx_id = 1;
  txs[0].timestamp = 10.0;
  txs[0].sender = 42;  // no reads, no writes — both fields empty in the CSV
  txs[1].tx_id = 2;
  txs[1].timestamp = 11.0;
  txs[1].sender = 7;
  txs[1].writes = {1, 2, 3};
  TempDir dir;
  const auto path = dir.path() / "sparse.csv";
  mvcom::txn::write_account_txs_csv(txs, path);
  const auto loaded = mvcom::txn::load_account_txs_csv(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded[0].reads.empty());
  EXPECT_TRUE(loaded[0].writes.empty());
  EXPECT_EQ(loaded[1].writes, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(WorkloadTest, OneBlockModeGivesEachCommitteeOneBlock) {
  Rng rng(8);
  TraceGeneratorConfig tc;
  tc.num_blocks = 100;
  tc.target_total_txs = 100'000;
  Trace trace = generate_trace(tc, rng);
  std::set<std::uint64_t> block_sizes;
  for (const auto& b : trace.blocks) block_sizes.insert(b.tx_count);

  WorkloadConfig wc;
  wc.num_committees = 30;
  const WorkloadGenerator gen(std::move(trace), wc);
  const auto workload = gen.epoch(rng);
  ASSERT_EQ(workload.reports.size(), 30u);
  for (const auto& r : workload.reports) {
    // Every shard's count equals some single block's count.
    EXPECT_TRUE(block_sizes.count(r.tx_count)) << r.tx_count;
    EXPECT_GT(r.two_phase_latency(), 0.0);
  }
}

TEST(WorkloadTest, DealAllModeConservesTotal) {
  Rng rng(9);
  TraceGeneratorConfig tc;
  tc.num_blocks = 200;
  tc.target_total_txs = 200'000;
  Trace trace = generate_trace(tc, rng);
  const std::uint64_t total = trace.total_txs();
  WorkloadConfig wc;
  wc.num_committees = 20;
  wc.fill = ShardFill::kDealAllBlocks;
  const WorkloadGenerator gen(std::move(trace), wc);
  const auto workload = gen.epoch(rng);
  EXPECT_EQ(workload.total_txs(), total);
  for (const auto& r : workload.reports) EXPECT_GE(r.tx_count, 1u);
}

TEST(WorkloadTest, DealAllWithAsManyCommitteesAsBlocksIsAPermutation) {
  // With |I| == #blocks the first dealing round consumes every block, so
  // each shard is exactly one block — the shard counts are a permutation of
  // the block counts.
  Rng rng(12);
  TraceGeneratorConfig tc;
  tc.num_blocks = 25;
  tc.target_total_txs = 25'000;
  Trace trace = generate_trace(tc, rng);
  std::multiset<std::uint64_t> block_counts;
  for (const auto& b : trace.blocks) block_counts.insert(b.tx_count);
  WorkloadConfig wc;
  wc.num_committees = 25;
  wc.fill = ShardFill::kDealAllBlocks;
  const WorkloadGenerator gen(std::move(trace), wc);
  const auto workload = gen.epoch(rng);
  std::multiset<std::uint64_t> shard_counts;
  for (const auto& r : workload.reports) shard_counts.insert(r.tx_count);
  EXPECT_EQ(shard_counts, block_counts);
}

TEST(WorkloadTest, DealAllKeyedEpochsArePureAndDistinct) {
  Rng rng(13);
  TraceGeneratorConfig tc;
  tc.num_blocks = 120;
  tc.target_total_txs = 120'000;
  WorkloadConfig wc;
  wc.num_committees = 12;
  wc.fill = ShardFill::kDealAllBlocks;
  const WorkloadGenerator gen(generate_trace(tc, rng), wc);
  const auto e2 = gen.epoch_keyed(99, 2);
  (void)gen.epoch_keyed(99, 0);  // unrelated epochs must not perturb a replay
  const auto replay = gen.epoch_keyed(99, 2);
  ASSERT_EQ(replay.reports.size(), e2.reports.size());
  for (std::size_t i = 0; i < e2.reports.size(); ++i) {
    EXPECT_EQ(replay.reports[i].tx_count, e2.reports[i].tx_count);
    EXPECT_DOUBLE_EQ(replay.reports[i].formation_latency,
                     e2.reports[i].formation_latency);
  }
  // Different epoch indices re-deal: totals conserve, the split moves.
  const auto e3 = gen.epoch_keyed(99, 3);
  EXPECT_EQ(e3.total_txs(), e2.total_txs());
  bool any_diff = false;
  for (std::size_t i = 0; i < e2.reports.size(); ++i) {
    any_diff |= e3.reports[i].tx_count != e2.reports[i].tx_count;
  }
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadTest, SubmitInstantMatchesInlineLatencySum) {
  // sample_submit_instant is the single shared sampling site for the
  // carry-over paths; it must consume exactly one two-phase sample and sum
  // it onto the window edge left-to-right (bitwise, so digests never move).
  Rng a(14);
  Rng b(14);
  WorkloadConfig wc;
  const double window_close = 1234.5;
  for (int i = 0; i < 100; ++i) {
    const double instant =
        mvcom::txn::sample_submit_instant(a, wc, window_close);
    const auto lat = sample_two_phase_latency(b, wc);
    EXPECT_EQ(instant, window_close + lat.formation + lat.consensus);
  }
  EXPECT_EQ(a(), b());  // engines stayed in lockstep
}

TEST(WorkloadTest, LatencyMarginalsMatchPaperModel) {
  // Formation ~ Exp(600 s); consensus ~ Erlang(3) with mean 54.5 s (§VI-A).
  Rng rng(10);
  WorkloadConfig wc;
  double formation_sum = 0.0;
  double consensus_sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto lat = sample_two_phase_latency(rng, wc);
    ASSERT_GE(lat.formation, 0.0);
    ASSERT_GE(lat.consensus, 0.0);
    formation_sum += lat.formation;
    consensus_sum += lat.consensus;
  }
  EXPECT_NEAR(formation_sum / n, 600.0, 8.0);
  EXPECT_NEAR(consensus_sum / n, 54.5, 0.8);
}

TEST(WorkloadTest, MaxLatencyIsDeadline) {
  Rng rng(11);
  TraceGeneratorConfig tc;
  tc.num_blocks = 40;
  tc.target_total_txs = 40'000;
  WorkloadConfig wc;
  wc.num_committees = 10;
  const WorkloadGenerator gen(generate_trace(tc, rng), wc);
  const auto workload = gen.epoch(rng);
  double expect_max = 0.0;
  for (const auto& r : workload.reports) {
    expect_max = std::max(expect_max, r.two_phase_latency());
  }
  EXPECT_DOUBLE_EQ(workload.max_latency(), expect_max);
}

TEST(WorkloadWindowTest, WindowsPartitionTheTraceTxs) {
  Rng rng(20);
  TraceGeneratorConfig tc;
  tc.num_blocks = 300;
  tc.target_total_txs = 300'000;
  Trace trace = generate_trace(tc, rng);
  const double span = trace.blocks.back().btime - trace.blocks.front().btime;
  const std::uint64_t total = trace.total_txs();

  WorkloadConfig wc;
  wc.num_committees = 10;
  const WorkloadGenerator gen(std::move(trace), wc);
  // Cover the whole trace with windows; TXs must partition exactly.
  const double window = span / 5.0 + 1.0;
  std::uint64_t seen = 0;
  for (std::size_t e = 0; e < 5; ++e) {
    const auto workload = gen.epoch_from_window(e, window, rng);
    ASSERT_EQ(workload.reports.size(), 10u);
    seen += workload.total_txs();
  }
  EXPECT_EQ(seen, total);
}

TEST(WorkloadWindowTest, QuietWindowYieldsEmptyShards) {
  Rng rng(21);
  TraceGeneratorConfig tc;
  tc.num_blocks = 10;
  tc.target_total_txs = 10'000;
  WorkloadConfig wc;
  wc.num_committees = 4;
  const WorkloadGenerator gen(generate_trace(tc, rng), wc);
  // A sliver window between two blocks usually catches nothing — counts
  // can be zero but latencies are still drawn.
  const auto workload = gen.epoch_from_window(0, 1e-6, rng);
  for (const auto& r : workload.reports) {
    EXPECT_GT(r.two_phase_latency(), 0.0);
  }
}

TEST(WorkloadWindowTest, WindowBeyondTraceThrows) {
  Rng rng(22);
  TraceGeneratorConfig tc;
  tc.num_blocks = 10;
  tc.target_total_txs = 10'000;
  WorkloadConfig wc;
  wc.num_committees = 4;
  const WorkloadGenerator gen(generate_trace(tc, rng), wc);
  EXPECT_THROW(gen.epoch_from_window(1000, 600.0, rng), std::out_of_range);
  EXPECT_THROW(gen.epoch_from_window(0, -5.0, rng), std::invalid_argument);
}

TEST(WorkloadTest, RejectsMoreCommitteesThanBlocks) {
  Rng rng(12);
  TraceGeneratorConfig tc;
  tc.num_blocks = 5;
  tc.target_total_txs = 5000;
  WorkloadConfig wc;
  wc.num_committees = 10;
  EXPECT_THROW(WorkloadGenerator(generate_trace(tc, rng), wc),
               std::invalid_argument);
}

}  // namespace
