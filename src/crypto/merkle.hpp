#pragma once
// Merkle tree over transaction digests, Bitcoin-style (odd level entries are
// paired with themselves). Shard blocks commit to their transaction set via
// the Merkle root.

#include <vector>

#include "crypto/sha256.hpp"

namespace mvcom::crypto {

/// Merkle root of a list of leaf digests.
class MerkleTree {
 public:
  /// Folds the leaves up to the root. An empty leaf set yields the digest
  /// of the empty string as root (a fixed, documented convention).
  explicit MerkleTree(std::vector<Digest> leaves);

  [[nodiscard]] const Digest& root() const noexcept { return root_; }

  /// Hash of an interior node: SHA256(left || right).
  [[nodiscard]] static Digest combine(const Digest& left,
                                      const Digest& right) noexcept;

 private:
  Digest root_{};
};

}  // namespace mvcom::crypto
