#pragma once
// Transaction-trace schema. The paper samples 1378 blocks from the first
// 1.5M Bitcoin transactions of January 2016; each record carries exactly the
// four fields the paper names: blockID, bhash, btime, txs (§VI-A).

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace mvcom::txn {

/// Unix time the synthetic traffic starts from — 2016-01-01T00:00:00Z,
/// matching the paper's snapshot. Generated block traces and account-model
/// epochs both count from it.
inline constexpr double kTraceStartSeconds = 1451606400.0;

/// One block of the (synthetic) Bitcoin trace.
struct BlockRecord {
  std::uint64_t block_id = 0;
  std::string bhash;        // hex-encoded SHA-256, as in the Bitcoin snapshot
  double btime = 0.0;       // creation timestamp, Unix seconds
  std::uint64_t tx_count = 0;  // number of transactions in the block
};

/// A full trace: blocks ordered by btime.
struct Trace {
  std::vector<BlockRecord> blocks;

  [[nodiscard]] std::uint64_t total_txs() const noexcept {
    return std::accumulate(blocks.begin(), blocks.end(), std::uint64_t{0},
                           [](std::uint64_t acc, const BlockRecord& b) {
                             return acc + b.tx_count;
                           });
  }
};

}  // namespace mvcom::txn
