#include "chain/root_chain.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvcom::chain {

const char* to_string(AppendError error) noexcept {
  switch (error) {
    case AppendError::kWrongHeight: return "wrong height";
    case AppendError::kBrokenHashLink: return "broken hash link";
    case AppendError::kMerkleMismatch: return "merkle mismatch";
    case AppendError::kNonMonotonicTimestamp: return "non-monotonic timestamp";
  }
  return "unknown";
}

RootChain::RootChain(std::string genesis_randomness) {
  blocks_.push_back(Block::assemble(nullptr, {}, 0, 0.0, "genesis",
                                    std::move(genesis_randomness)));
}

const Block& RootChain::at(std::uint64_t block_height) const {
  if (block_height >= blocks_.size()) {
    throw std::out_of_range("RootChain::at: height beyond tip");
  }
  return blocks_[block_height];
}

std::optional<AppendError> RootChain::check(const Block& block) const {
  const BlockHeader& tip_header = blocks_.back().header;
  if (block.header.height != tip_header.height + 1) {
    return AppendError::kWrongHeight;
  }
  if (block.header.prev_hash != tip_header.hash()) {
    return AppendError::kBrokenHashLink;
  }
  if (!block.merkle_consistent()) {
    return AppendError::kMerkleMismatch;
  }
  if (block.header.timestamp < tip_header.timestamp) {
    return AppendError::kNonMonotonicTimestamp;
  }
  return std::nullopt;
}

std::optional<AppendError> RootChain::append(Block block) {
  if (const auto error = check(block)) return error;
  blocks_.push_back(std::move(block));
  return std::nullopt;
}

const Block& RootChain::extend(std::vector<Digest> shard_roots,
                               std::uint64_t tx_count, double timestamp,
                               std::string proposer,
                               std::string epoch_randomness) {
  const Digest root = crypto::MerkleTree(shard_roots).root();
  return extend(std::move(shard_roots), root, tx_count, timestamp,
                std::move(proposer), std::move(epoch_randomness));
}

const Block& RootChain::extend(std::vector<Digest> shard_roots,
                               const Digest& shard_merkle_root,
                               std::uint64_t tx_count, double timestamp,
                               std::string proposer,
                               std::string epoch_randomness) {
  const BlockHeader& tip = blocks_.back().header;
  Block block = Block::assemble(&tip, std::move(shard_roots), shard_merkle_root,
                                tx_count, std::max(timestamp, tip.timestamp),
                                std::move(proposer), std::move(epoch_randomness));
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

bool RootChain::validate_full() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& block = blocks_[i];
    if (!block.merkle_consistent()) return false;
    if (block.header.height != i) return false;
    if (i == 0) continue;
    const BlockHeader& prev = blocks_[i - 1].header;
    if (block.header.prev_hash != prev.hash()) return false;
    if (block.header.timestamp < prev.timestamp) return false;
  }
  return true;
}

std::uint64_t RootChain::total_txs() const noexcept {
  std::uint64_t total = 0;
  for (const Block& block : blocks_) total += block.header.tx_count;
  return total;
}

}  // namespace mvcom::chain
