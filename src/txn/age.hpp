#pragma once
// Per-transaction cumulative-age accounting.
//
// The paper measures a shard's cumulative age coarsely as Π_i = x_i(t − l_i)
// — the wait between the shard's submission and the deadline. This module
// provides the finer per-transaction view the metric abstracts: every TX in
// a shard has been waiting since its own creation time (btime of its
// block), so the *true* cumulative age of a shard committed at instant T is
// Σ_tx (T − arrival_tx). Benches use it to show that MVCom's selections
// reduce the real per-TX waiting, not just the proxy.

#include <cstdint>
#include <vector>

#include "txn/trace.hpp"

namespace mvcom::txn {

/// Age profile of one shard's transactions at a reference instant.
struct AgeProfile {
  std::uint64_t tx_count = 0;
  double total_age = 0.0;   // Σ_tx (T − arrival), seconds
  double max_age = 0.0;
  [[nodiscard]] double mean_age() const noexcept {
    return tx_count ? total_age / static_cast<double>(tx_count) : 0.0;
  }
};

/// A shard as a set of trace blocks (each block's TXs share its btime).
struct ShardBlocks {
  std::uint32_t committee_id = 0;
  std::vector<std::size_t> block_indices;  // indices into the trace
};

/// Per-TX cumulative age of `shard` if its transactions commit at absolute
/// time `commit_time` (same clock as the trace's btime).
[[nodiscard]] AgeProfile shard_age_profile(const Trace& trace,
                                           const ShardBlocks& shard,
                                           double commit_time);

}  // namespace mvcom::txn
