// Tests for the transaction-trace generator, CSV I/O, and workload builder.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
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
using mvcom::txn::deal_blocks;
using mvcom::txn::generate_trace;
using mvcom::txn::load_trace_csv;
using mvcom::txn::sample_two_phase_latency;
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

TEST(TraceIoTest, ShortWriteThrows) {
  // /dev/full opens fine and fails every write with ENOSPC: both trace
  // writers must report it instead of returning as if the file were whole.
  const std::filesystem::path full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no /dev/full";
  Rng rng(3);
  TraceGeneratorConfig config;
  config.num_blocks = 50;
  config.target_total_txs = 50'000;
  EXPECT_THROW(write_trace_csv(generate_trace(config, rng), full),
               std::runtime_error);
  EXPECT_THROW(mvcom::txn::write_account_txs_csv({{1, 2.0, 3, {4}, {5}}}, full),
               std::runtime_error);
}

TEST(TraceIoTest, AccountTxCsvHasTheDocumentedBytes) {
  // Schema corners: a zero timestamp, empty read and write sets (empty
  // fields), one- and many-element sets in stored order, and maximum ids.
  const std::vector<mvcom::txn::AccountTx> txs = {
      {0, 0.0, 0, {}, {}},
      {18446744073709551615ULL, 1451606400.5, 4294967295U, {1}, {4294967294U}},
      {5, 2000.25, 17, {3, 1, 2}, {}},
      {2, 11.0, 7, {}, {1, 2, 3}},
  };
  TempDir dir;
  const auto path = dir.path() / "accounts.csv";
  mvcom::txn::write_account_txs_csv(txs, path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(bytes,
            "txID,ts,sender,writes,reads\n"
            "0,0.000000,0,,\n"
            "18446744073709551615,1451606400.500000,4294967295,4294967294,1\n"
            "5,2000.250000,17,,3;1;2\n"
            "2,11.000000,7,1;2;3,\n");
}

Trace dealer_trace(std::uint64_t blocks, std::uint64_t txs) {
  Rng rng(1);
  TraceGeneratorConfig tc;
  tc.num_blocks = blocks;
  tc.target_total_txs = txs;
  return generate_trace(tc, rng);
}

TEST(DealBlocksTest, EveryShardGetsAtLeastOneBlockAndTotalsMatch) {
  const Trace trace = dealer_trace(128, 128'000);
  Rng rng(2);
  const auto txs = deal_blocks(trace, 10, trace.blocks.size(), rng);
  ASSERT_EQ(txs.size(), 10u);
  std::uint64_t total = 0;
  for (const std::uint64_t t : txs) {
    EXPECT_GE(t, 1u);
    total += t;
  }
  EXPECT_EQ(total, trace.total_txs());
}

TEST(DealBlocksTest, RejectsMoreShardsThanBlocks) {
  const Trace trace = dealer_trace(4, 4000);
  Rng rng(3);
  EXPECT_THROW(deal_blocks(trace, 5, 4, rng), std::invalid_argument);
  EXPECT_THROW(deal_blocks(trace, 0, 4, rng), std::invalid_argument);
  // Dealing fewer ranks than shards, or more ranks than blocks, would leave
  // a shard empty or read past the trace.
  EXPECT_THROW(deal_blocks(trace, 3, 2, rng), std::invalid_argument);
  EXPECT_THROW(deal_blocks(trace, 3, 5, rng), std::invalid_argument);
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

TEST(WorkloadTest, DealAllWithAsManyCommitteesAsBlocksIsAPermutation) {
  // With |I| == #blocks the first dealing round consumes every block, so
  // each shard is exactly one block — the shard counts are a permutation of
  // the block counts.
  Rng rng(12);
  TraceGeneratorConfig tc;
  tc.num_blocks = 25;
  tc.target_total_txs = 25'000;
  const Trace trace = generate_trace(tc, rng);
  std::multiset<std::uint64_t> block_counts;
  for (const auto& b : trace.blocks) block_counts.insert(b.tx_count);
  const auto txs = deal_blocks(trace, 25, trace.blocks.size(), rng);
  const std::multiset<std::uint64_t> shard_counts(txs.begin(), txs.end());
  EXPECT_EQ(shard_counts, block_counts);
}

TEST(WorkloadTest, DealAllKeyedEpochsArePureAndDistinct) {
  Rng rng(13);
  TraceGeneratorConfig tc;
  tc.num_blocks = 120;
  tc.target_total_txs = 120'000;
  WorkloadConfig wc;
  wc.num_committees = 12;
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
  // Different epoch indices draw different blocks.
  const auto e3 = gen.epoch_keyed(99, 3);
  bool any_diff = false;
  for (std::size_t i = 0; i < e2.reports.size(); ++i) {
    any_diff |= e3.reports[i].tx_count != e2.reports[i].tx_count;
  }
  EXPECT_TRUE(any_diff);
  // Dealing every block on two epochs' keyed streams (Elastico's deal)
  // conserves the total while the split moves.
  Rng stream2 = Rng::stream(99, 2);
  Rng stream3 = Rng::stream(99, 3);
  const auto all2 = deal_blocks(gen.trace(), 12, gen.trace().blocks.size(),
                                stream2);
  const auto all3 = deal_blocks(gen.trace(), 12, gen.trace().blocks.size(),
                                stream3);
  EXPECT_EQ(std::accumulate(all2.begin(), all2.end(), std::uint64_t{0}),
            gen.trace().total_txs());
  EXPECT_EQ(std::accumulate(all3.begin(), all3.end(), std::uint64_t{0}),
            gen.trace().total_txs());
  EXPECT_NE(all2, all3);
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
    const auto lat = sample_two_phase_latency(b);
    EXPECT_EQ(instant, window_close + lat.formation + lat.consensus);
  }
  EXPECT_EQ(a(), b());  // engines stayed in lockstep
}

TEST(WorkloadTest, LatencyMarginalsMatchPaperModel) {
  // Formation ~ Exp(600 s); consensus ~ Erlang(3) with mean 54.5 s (§VI-A).
  Rng rng(10);
  double formation_sum = 0.0;
  double consensus_sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto lat = sample_two_phase_latency(rng);
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
