#pragma once
// Synthetic Bitcoin-like trace generator — the documented substitution for
// the paper's proprietary January-2016 snapshot (see DESIGN.md §3).
//
// Calibration targets, all taken from the paper or public Bitcoin stats:
//  * 1378 blocks, ~1.5M transactions total (mean ≈ 1088 TXs/block);
//  * inter-block time exponential with mean 600 s (PoW difficulty target);
//  * per-block transaction counts right-skewed (log-normal), then rescaled
//    so the total matches the target exactly — the MVCom utility depends on
//    absolute TX counts, so the total is pinned rather than approximate.

#include "common/rng.hpp"
#include "txn/trace.hpp"

namespace mvcom::txn {

struct TraceGeneratorConfig {
  std::uint64_t num_blocks = 1378;
  std::uint64_t target_total_txs = 1'500'000;
  double mean_interblock_seconds = 600.0;
};

/// Generates a deterministic trace for the given seed-carrying engine.
/// Postconditions: blocks sorted by btime; total_txs() == target_total_txs
/// (plus/minus nothing — rounding remainder is assigned to the last block);
/// every block has tx_count >= 1.
[[nodiscard]] Trace generate_trace(const TraceGeneratorConfig& config,
                                   common::Rng& rng);

}  // namespace mvcom::txn
