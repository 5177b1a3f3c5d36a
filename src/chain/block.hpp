#pragma once
// Root-chain blocks. Each epoch's final consensus "yields a new global
// block for the root chain" (§I stage 4); a block commits to the selected
// committee shards through a Merkle root over their shard roots and links
// to its predecessor by hash.

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace mvcom::chain {

using crypto::Digest;

struct BlockHeader {
  std::uint64_t height = 0;
  Digest prev_hash{};
  Digest shard_merkle_root{};   // root over the included shard roots
  double timestamp = 0.0;       // simulated seconds
  std::uint64_t tx_count = 0;   // TXs packed across the included shards
  std::string proposer;         // final-committee identifier
  std::string epoch_randomness; // stage-5 beacon output used this epoch

  /// Canonical header hash: SHA-256 over a length-unambiguous encoding.
  [[nodiscard]] Digest hash() const;
};

struct Block {
  BlockHeader header;
  std::vector<Digest> shard_roots;  // leaves behind header.shard_merkle_root

  /// Builds a block on `prev` (pass nullptr for the genesis block).
  [[nodiscard]] static Block assemble(const BlockHeader* prev,
                                      std::vector<Digest> shard_roots,
                                      std::uint64_t tx_count, double timestamp,
                                      std::string proposer,
                                      std::string epoch_randomness);
  /// As above, with the Merkle root of `shard_roots` the caller already
  /// built; it is taken as given (merkle_consistent() re-derives it).
  [[nodiscard]] static Block assemble(const BlockHeader* prev,
                                      std::vector<Digest> shard_roots,
                                      const Digest& shard_merkle_root,
                                      std::uint64_t tx_count, double timestamp,
                                      std::string proposer,
                                      std::string epoch_randomness);

  /// Structural self-check: the header's Merkle root matches the shard
  /// roots actually carried.
  [[nodiscard]] bool merkle_consistent() const;
};

}  // namespace mvcom::chain
