#include "sharding/verification.hpp"

#include <limits>

namespace mvcom::sharding {

crypto::Digest ShardEntry::leaf() const {
  crypto::Sha256 h;
  h.update(block_hash);
  h.update("#");
  h.update(std::to_string(tx_count));
  return h.finalize();
}

const char* to_string(SubmissionError error) noexcept {
  switch (error) {
    case SubmissionError::kEmpty: return "empty shard";
    case SubmissionError::kRootMismatch: return "merkle root mismatch";
    case SubmissionError::kCountMismatch: return "tx count mismatch";
  }
  return "unknown";
}

namespace {

crypto::Digest root_of(const std::vector<ShardEntry>& entries) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(entries.size());
  for (const ShardEntry& e : entries) leaves.push_back(e.leaf());
  return crypto::MerkleTree(std::move(leaves)).root();
}

}  // namespace

ShardSubmission build_submission(std::uint32_t committee_id,
                                 std::vector<ShardEntry> entries) {
  ShardSubmission s;
  s.committee_id = committee_id;
  s.entries = std::move(entries);
  s.claimed_root = root_of(s.entries);
  for (const ShardEntry& e : s.entries) s.claimed_tx_count += e.tx_count;
  return s;
}

std::optional<SubmissionError> verify_submission(
    const ShardSubmission& submission) {
  if (submission.entries.empty()) return SubmissionError::kEmpty;
  if (root_of(submission.entries) != submission.claimed_root) {
    return SubmissionError::kRootMismatch;
  }
  std::uint64_t total = 0;
  for (const ShardEntry& e : submission.entries) {
    // Counts summing past 2^64 − 1 would wrap to a small claim; no real
    // shard holds that many TXs.
    if (e.tx_count > std::numeric_limits<std::uint64_t>::max() - total) {
      return SubmissionError::kCountMismatch;
    }
    total += e.tx_count;
  }
  if (total != submission.claimed_tx_count) {
    return SubmissionError::kCountMismatch;
  }
  return std::nullopt;
}

}  // namespace mvcom::sharding
