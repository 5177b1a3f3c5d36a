#pragma once
// The root chain — the append-only ledger of global blocks the final
// committee produces, one per epoch. Append validates the candidate block
// against the tip (height, hash link, Merkle consistency, timestamp
// monotonicity); the chain can also re-validate itself from genesis, which
// integration tests use as the end-to-end integrity check of the whole
// Elastico pipeline.

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/block.hpp"

namespace mvcom::chain {

enum class AppendError {
  kWrongHeight,
  kBrokenHashLink,
  kMerkleMismatch,
  kNonMonotonicTimestamp,
};

[[nodiscard]] const char* to_string(AppendError error) noexcept;

class RootChain {
 public:
  /// Starts a chain with a genesis block carrying no shards.
  explicit RootChain(std::string genesis_randomness = "genesis");

  [[nodiscard]] const Block& tip() const noexcept { return blocks_.back(); }
  [[nodiscard]] std::uint64_t height() const noexcept {
    return blocks_.back().header.height;
  }
  [[nodiscard]] std::size_t size() const noexcept { return blocks_.size(); }
  [[nodiscard]] const Block& at(std::uint64_t block_height) const;

  /// Validates and appends; returns the rejection reason on failure (the
  /// chain is unchanged then).
  [[nodiscard]] std::optional<AppendError> append(Block block);

  /// Assembles a block on the tip and appends it. The block links to the
  /// tip and its timestamp is clamped to the tip's, so it needs no check.
  const Block& extend(std::vector<Digest> shard_roots, std::uint64_t tx_count,
                      double timestamp, std::string proposer,
                      std::string epoch_randomness);
  /// As above, reusing the Merkle root of `shard_roots` that the caller
  /// already built (the final committee's consensus payload). The root is
  /// trusted, not re-derived here: validate_full() re-derives it, and
  /// append() refuses a block whose root does not match.
  const Block& extend(std::vector<Digest> shard_roots,
                      const Digest& shard_merkle_root, std::uint64_t tx_count,
                      double timestamp, std::string proposer,
                      std::string epoch_randomness);

  /// Full revalidation from genesis — every link, root, and timestamp.
  [[nodiscard]] bool validate_full() const;

  /// Total transactions committed across all blocks.
  [[nodiscard]] std::uint64_t total_txs() const noexcept;

 private:
  [[nodiscard]] std::optional<AppendError> check(const Block& block) const;

  std::vector<Block> blocks_;
};

}  // namespace mvcom::chain
