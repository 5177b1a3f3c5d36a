#include "chain/block.hpp"

#include <array>

namespace mvcom::chain {
namespace {

/// Length-prefixed field encoding — no two distinct headers share an
/// encoding, so the hash is collision-safe at the format level.
void feed(crypto::Sha256& h, std::string_view field) {
  h.update(std::to_string(field.size()));
  h.update(":");
  h.update(field);
  h.update("|");
}

void feed(crypto::Sha256& h, const Digest& digest) {
  h.update(std::span<const std::uint8_t>(digest.data(), digest.size()));
  h.update("|");
}

}  // namespace

Digest BlockHeader::hash() const {
  crypto::Sha256 h;
  feed(h, std::to_string(height));
  feed(h, prev_hash);
  feed(h, shard_merkle_root);
  feed(h, std::to_string(timestamp));
  feed(h, std::to_string(tx_count));
  feed(h, proposer);
  feed(h, epoch_randomness);
  return h.finalize();
}

Block Block::assemble(const BlockHeader* prev, std::vector<Digest> shard_roots,
                      std::uint64_t tx_count, double timestamp,
                      std::string proposer, std::string epoch_randomness) {
  const Digest root = crypto::MerkleTree(shard_roots).root();
  return assemble(prev, std::move(shard_roots), root, tx_count, timestamp,
                  std::move(proposer), std::move(epoch_randomness));
}

Block Block::assemble(const BlockHeader* prev, std::vector<Digest> shard_roots,
                      const Digest& shard_merkle_root, std::uint64_t tx_count,
                      double timestamp, std::string proposer,
                      std::string epoch_randomness) {
  Block block;
  block.header.height = prev ? prev->height + 1 : 0;
  block.header.prev_hash = prev ? prev->hash() : Digest{};
  block.header.shard_merkle_root = shard_merkle_root;
  block.header.timestamp = timestamp;
  block.header.tx_count = tx_count;
  block.header.proposer = std::move(proposer);
  block.header.epoch_randomness = std::move(epoch_randomness);
  block.shard_roots = std::move(shard_roots);
  return block;
}

bool Block::merkle_consistent() const {
  return crypto::MerkleTree(shard_roots).root() == header.shard_merkle_root;
}

}  // namespace mvcom::chain
