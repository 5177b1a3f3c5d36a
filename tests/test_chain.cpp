// Tests for the root chain (chain/block, chain/root_chain) and the
// shard-submission verification layer (sharding/verification).

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "chain/checkpoint.hpp"
#include "chain/root_chain.hpp"
#include "sharding/verification.hpp"

namespace {

using mvcom::chain::AppendError;
using mvcom::chain::Block;
using mvcom::chain::RootChain;
using mvcom::crypto::Digest;
using mvcom::crypto::Sha256;

std::vector<Digest> roots(int n, const std::string& tag = "r") {
  std::vector<Digest> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Sha256::hash(tag + std::to_string(i)));
  }
  return out;
}

// --- blocks --------------------------------------------------------------------

TEST(BlockTest, HeaderHashBindsEveryField) {
  Block base = Block::assemble(nullptr, roots(3), 100, 5.0, "p", "rand");
  const Digest original = base.header.hash();
  auto mutate = [&](auto&& change) {
    Block copy = base;
    change(copy);
    EXPECT_NE(copy.header.hash(), original);
  };
  mutate([](Block& b) { b.header.height = 7; });
  mutate([](Block& b) { b.header.tx_count = 101; });
  mutate([](Block& b) { b.header.timestamp = 6.0; });
  mutate([](Block& b) { b.header.proposer = "q"; });
  mutate([](Block& b) { b.header.epoch_randomness = "other"; });
  mutate([](Block& b) { b.header.prev_hash = Sha256::hash("x"); });
}

TEST(BlockTest, HeaderHashIsNotAmbiguousUnderFieldSplits) {
  // "ab" + "c" must not collide with "a" + "bc" (length-prefixed encoding).
  Block a = Block::assemble(nullptr, {}, 0, 0.0, "ab", "c");
  Block b = Block::assemble(nullptr, {}, 0, 0.0, "a", "bc");
  EXPECT_NE(a.header.hash(), b.header.hash());
}

TEST(BlockTest, MerkleConsistencyDetectsTampering) {
  Block block = Block::assemble(nullptr, roots(4), 10, 1.0, "p", "r");
  EXPECT_TRUE(block.merkle_consistent());
  block.shard_roots[2] = Sha256::hash("swapped");
  EXPECT_FALSE(block.merkle_consistent());
}

// --- root chain ------------------------------------------------------------------

TEST(RootChainTest, GenesisIsValid) {
  const RootChain chain;
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_TRUE(chain.validate_full());
}

TEST(RootChainTest, ExtendGrowsAValidChain) {
  RootChain chain;
  for (int e = 1; e <= 5; ++e) {
    chain.extend(roots(e), static_cast<std::uint64_t>(100 * e),
                 1000.0 * e, "final", "rand" + std::to_string(e));
  }
  EXPECT_EQ(chain.height(), 5u);
  EXPECT_TRUE(chain.validate_full());
  EXPECT_EQ(chain.total_txs(), 100u + 200 + 300 + 400 + 500);
  EXPECT_EQ(chain.at(3).header.height, 3u);
}

TEST(RootChainTest, AppendRejectsWrongHeight) {
  RootChain chain;
  Block block = Block::assemble(&chain.tip().header, roots(1), 10, 1.0, "p", "r");
  block.header.height = 5;
  EXPECT_EQ(chain.append(block), AppendError::kWrongHeight);
  EXPECT_EQ(chain.size(), 1u);
}

TEST(RootChainTest, AppendRejectsBrokenHashLink) {
  RootChain chain;
  Block block = Block::assemble(&chain.tip().header, roots(1), 10, 1.0, "p", "r");
  block.header.prev_hash = Sha256::hash("somewhere else");
  EXPECT_EQ(chain.append(block), AppendError::kBrokenHashLink);
}

TEST(RootChainTest, AppendRejectsMerkleMismatch) {
  RootChain chain;
  Block block = Block::assemble(&chain.tip().header, roots(2), 10, 1.0, "p", "r");
  block.shard_roots.push_back(Sha256::hash("smuggled"));
  EXPECT_EQ(chain.append(block), AppendError::kMerkleMismatch);
}

TEST(RootChainTest, AppendRejectsTimeTravel) {
  RootChain chain;
  chain.extend(roots(1), 10, 100.0, "p", "r");
  Block block = Block::assemble(&chain.tip().header, roots(1), 10, 50.0, "p", "r");
  EXPECT_EQ(chain.append(block), AppendError::kNonMonotonicTimestamp);
}

TEST(RootChainTest, AtBeyondTipThrows) {
  const RootChain chain;
  EXPECT_THROW(static_cast<void>(chain.at(1)), std::out_of_range);
}

TEST(RootChainTest, FullValidationCatchesDeepTampering) {
  RootChain chain;
  for (int e = 1; e <= 3; ++e) {
    chain.extend(roots(e), 100, 10.0 * e, "p", "r");
  }
  EXPECT_TRUE(chain.validate_full());
  // Forge a copy with a tampered middle block: revalidation must fail.
  RootChain tampered = chain;
  const_cast<Block&>(tampered.at(1)).header.tx_count = 999'999;
  EXPECT_FALSE(tampered.validate_full());
}

// --- shard-submission verification ------------------------------------------------

TEST(SubmissionTest, HonestSubmissionVerifies) {
  using mvcom::sharding::build_submission;
  using mvcom::sharding::verify_submission;
  const auto submission = build_submission(
      3, {{"hash-a", 100}, {"hash-b", 250}, {"hash-c", 7}});
  EXPECT_EQ(submission.claimed_tx_count, 357u);
  EXPECT_FALSE(verify_submission(submission).has_value());
}

TEST(SubmissionTest, InflatedCountIsDetected) {
  using mvcom::sharding::build_submission;
  using mvcom::sharding::SubmissionError;
  using mvcom::sharding::verify_submission;
  auto submission = build_submission(3, {{"hash-a", 100}, {"hash-b", 250}});
  submission.claimed_tx_count += 10'000;  // committee inflates its s_i
  EXPECT_EQ(verify_submission(submission), SubmissionError::kCountMismatch);
}

TEST(SubmissionTest, TamperedEntryBreaksTheRoot) {
  using mvcom::sharding::build_submission;
  using mvcom::sharding::SubmissionError;
  using mvcom::sharding::verify_submission;
  auto submission = build_submission(3, {{"hash-a", 100}, {"hash-b", 250}});
  submission.entries[1].tx_count = 9'999;  // count inflated *inside* entries
  // The root no longer matches — count binding works.
  EXPECT_EQ(verify_submission(submission), SubmissionError::kRootMismatch);
}

TEST(SubmissionTest, EmptyShardRejected) {
  using mvcom::sharding::build_submission;
  using mvcom::sharding::SubmissionError;
  using mvcom::sharding::verify_submission;
  EXPECT_EQ(verify_submission(build_submission(1, {})),
            SubmissionError::kEmpty);
}

// --- checkpoints ---------------------------------------------------------------

RootChain sample_chain() {
  RootChain chain("serve-genesis");
  double t = 100.0;
  for (int e = 0; e < 5; ++e) {
    t += 50.0 + e;
    chain.extend(roots(e % 3 + 1, "cp" + std::to_string(e)),
                 static_cast<std::uint64_t>(1000 * (e + 1)), t,
                 "final-committee", "rand-" + std::to_string(e));
  }
  return chain;
}

TEST(CheckpointTest, RoundtripRestoresTheExactChain) {
  const RootChain chain = sample_chain();
  std::stringstream buffer;
  ASSERT_TRUE(mvcom::chain::write_checkpoint(chain, buffer));
  const auto restored = mvcom::chain::load_checkpoint(buffer);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->validate_full());
  ASSERT_EQ(restored->size(), chain.size());
  for (std::uint64_t h = 0; h < chain.size(); ++h) {
    EXPECT_EQ(restored->at(h).header.hash(), chain.at(h).header.hash())
        << "height " << h;
  }
  EXPECT_EQ(restored->total_txs(), chain.total_txs());
}

TEST(CheckpointTest, TruncationFailsTheChecksum) {
  // The torn-write of a daemon killed mid-checkpoint: any prefix must be
  // rejected before structural parsing even starts.
  const RootChain chain = sample_chain();
  std::stringstream buffer;
  ASSERT_TRUE(mvcom::chain::write_checkpoint(chain, buffer));
  const std::string full = buffer.str();
  for (const std::size_t keep :
       {full.size() - 1, full.size() / 2, std::size_t{10}}) {
    std::stringstream cut(full.substr(0, keep));
    EXPECT_FALSE(mvcom::chain::load_checkpoint(cut).has_value())
        << "prefix of " << keep << " bytes was accepted";
  }
}

TEST(CheckpointTest, TamperedPayloadIsRejected) {
  const RootChain chain = sample_chain();
  std::stringstream buffer;
  ASSERT_TRUE(mvcom::chain::write_checkpoint(chain, buffer));
  std::string text = buffer.str();
  // Flip one tx_count digit somewhere in the middle of the payload.
  const std::size_t at = text.find("1000");
  ASSERT_NE(at, std::string::npos);
  text[at] = '2';
  std::stringstream tampered(text);
  EXPECT_FALSE(mvcom::chain::load_checkpoint(tampered).has_value());
}

TEST(CheckpointTest, EscapedStringsSurviveTheTokenizer) {
  RootChain chain("genesis with spaces\tand tabs");
  chain.extend(roots(2), 42, 7.5, "proposer with % and space", "r 1");
  std::stringstream buffer;
  ASSERT_TRUE(mvcom::chain::write_checkpoint(chain, buffer));
  const auto restored = mvcom::chain::load_checkpoint(buffer);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->at(1).header.proposer, "proposer with % and space");
  EXPECT_EQ(restored->at(1).header.epoch_randomness, "r 1");
  EXPECT_EQ(restored->tip().header.hash(), chain.tip().header.hash());
}

TEST(CheckpointTest, FailedFileWriteKeepsThePreviousCheckpoint) {
  // The file write goes through `<path>.tmp` + rename, so a write that
  // cannot even create its temp file must leave the last good checkpoint
  // loadable, and a successful one must leave no temp file behind.
  namespace fs = std::filesystem;
  const fs::path path = fs::path(::testing::TempDir()) / "chain_fail.ckpt";
  const fs::path tmp = path.string() + ".tmp";
  fs::remove_all(tmp);
  RootChain chain("serve-genesis");
  chain.extend(roots(2, "a"), 10, 5.0, "final-committee", "rand-a");
  ASSERT_TRUE(mvcom::chain::write_checkpoint_file(chain, path.string()));
  EXPECT_FALSE(fs::exists(tmp));

  const RootChain longer = sample_chain();
  fs::create_directory(tmp);  // the temp file cannot be created now
  EXPECT_FALSE(mvcom::chain::write_checkpoint_file(longer, path.string()));
  const auto kept = mvcom::chain::load_checkpoint_file(path.string());
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->tip().header.hash(), chain.tip().header.hash());

  fs::remove(tmp);
  ASSERT_TRUE(mvcom::chain::write_checkpoint_file(longer, path.string()));
  EXPECT_FALSE(fs::exists(tmp));
  const auto replaced = mvcom::chain::load_checkpoint_file(path.string());
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->tip().header.hash(), longer.tip().header.hash());
  fs::remove(path);
}

}  // namespace
