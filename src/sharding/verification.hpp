#pragma once
// Shard-submission verification. The MVCom utility trusts the (s_i, l_i)
// features committees report; a rational committee could inflate s_i to
// look more valuable. The final committee therefore verifies each
// submission: the shard's content is committed by a Merkle root over
// per-block entries that *bind the transaction counts*, so a claimed total
// that disagrees with the committed entries is detected before scheduling.
// (Latency l_i needs no such check: the final committee measures arrival
// time itself.)

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace mvcom::sharding {

/// One block carried by a shard: its hash and how many TXs it holds.
struct ShardEntry {
  std::string block_hash;
  std::uint64_t tx_count = 0;

  /// Count-binding leaf digest: H(block_hash ‖ tx_count).
  [[nodiscard]] crypto::Digest leaf() const;
};

/// What a member committee submits to the final committee.
struct ShardSubmission {
  std::uint32_t committee_id = 0;
  std::vector<ShardEntry> entries;
  crypto::Digest claimed_root{};
  std::uint64_t claimed_tx_count = 0;
};

enum class SubmissionError {
  kEmpty,
  kRootMismatch,
  kCountMismatch,
};
[[nodiscard]] const char* to_string(SubmissionError error) noexcept;

/// Builds an honest submission from the shard's entries.
[[nodiscard]] ShardSubmission build_submission(
    std::uint32_t committee_id, std::vector<ShardEntry> entries);

/// Verifies root and count binding; nullopt = accepted. Entry counts whose
/// sum exceeds 2^64 − 1 are a kCountMismatch.
[[nodiscard]] std::optional<SubmissionError> verify_submission(
    const ShardSubmission& submission);

}  // namespace mvcom::sharding
