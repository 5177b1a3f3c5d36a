#include "txn/trace_generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace mvcom::txn {

Trace generate_trace(const TraceGeneratorConfig& config, common::Rng& rng) {
  if (config.num_blocks == 0) {
    throw std::invalid_argument("generate_trace: num_blocks must be positive");
  }
  if (config.target_total_txs < config.num_blocks) {
    throw std::invalid_argument(
        "generate_trace: need at least one transaction per block");
  }

  const auto n = config.num_blocks;
  const double mean_txs = static_cast<double>(config.target_total_txs) /
                          static_cast<double>(n);

  // Draw raw right-skewed counts, then rescale to pin the total.
  constexpr double kTxCountCv = 0.45;  // coefficient of variation
  std::vector<double> raw(n);
  double raw_sum = 0.0;
  for (auto& r : raw) {
    r = rng.lognormal_mean_sd(mean_txs, kTxCountCv * mean_txs);
    raw_sum += r;
  }

  Trace trace;
  trace.blocks.reserve(n);
  double t = config.start_time;
  std::uint64_t assigned = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    t += rng.exponential(config.mean_interblock_seconds);
    BlockRecord block;
    block.block_id = i;
    block.btime = t;
    const double scaled =
        raw[i] / raw_sum * static_cast<double>(config.target_total_txs);
    block.tx_count = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(scaled));
    assigned += block.tx_count;
    // bhash = double-SHA256 over the block header fields, Bitcoin-style.
    block.bhash = crypto::to_hex(crypto::Sha256::double_hash(
        std::to_string(block.block_id) + "|" + std::to_string(block.btime)));
    trace.blocks.push_back(std::move(block));
  }

  // Rounding left a small residue; settle it on the last block so the total
  // is exact. The residue is O(num_blocks), tiny relative to any block.
  auto& last = trace.blocks.back();
  if (assigned < config.target_total_txs) {
    last.tx_count += config.target_total_txs - assigned;
  } else if (assigned > config.target_total_txs) {
    const std::uint64_t excess = assigned - config.target_total_txs;
    last.tx_count = last.tx_count > excess ? last.tx_count - excess : 1;
  }

  assert(std::is_sorted(trace.blocks.begin(), trace.blocks.end(),
                        [](const BlockRecord& a, const BlockRecord& b) {
                          return a.btime < b.btime;
                        }));
  return trace;
}

}  // namespace mvcom::txn
