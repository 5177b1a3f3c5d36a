#pragma once
// Account-based transaction workloads — the contention regime the paper
// never stresses. The block-trace path (txn/workload.hpp) treats every TX as
// independent and intra-shard, so a committee's s_i is workload-free. Real
// sharded traffic is account-structured: a few hot accounts absorb most of
// the access mass (Zipf), arrivals come in bursts, and a tunable fraction of
// TXs touch accounts homed on *other* shards — the cross-shard 2-phase
// traffic that Adhikari & Busch's scheduling papers ("Fast Transaction
// Scheduling in Blockchain Sharding", "On the Efficiency of Dynamic
// Transaction Scheduling in Blockchain Sharding") are built around.
//
// The generator here produces AccountTx traces per epoch, keyed off
// Rng::stream substreams: epoch k's traffic is a pure function of
// (seed, k), reproducible in any order and under any pipeline overlap —
// the same purity contract stage A of the streaming pipeline relies on
// (DESIGN.md §13, §15).

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace mvcom::txn {

/// One account-based transaction. The sender is always written; `reads` and
/// `writes` are the extra accounts the TX touches (deduplicated, never
/// containing the sender). Which shards the TX spans is not a property of
/// the TX itself — it falls out of home_shard() over its account set, so the
/// same trace can be assembled onto any committee count.
struct AccountTx {
  std::uint64_t tx_id = 0;
  double timestamp = 0.0;  // arrival instant, trace clock (Unix seconds)
  std::uint32_t sender = 0;
  std::vector<std::uint32_t> reads;
  std::vector<std::uint32_t> writes;

  /// Visits sender + writes + reads, in that fixed order (write set first —
  /// the locking order every scheduler in txn/xshard uses).
  template <typename Fn>
  void for_each_account(Fn&& fn) const {
    fn(sender, /*write=*/true);
    for (const std::uint32_t a : writes) fn(a, /*write=*/true);
    for (const std::uint32_t a : reads) fn(a, /*write=*/false);
  }
};

/// Home-shard mapping shared by the generator and the assembler. Plain
/// modulo keeps it trivially invertible: snapping account a onto shard t is
/// a − a%S + t, which preserves the account's Zipf rank band — the property
/// the generator's intra-shard partner selection depends on.
[[nodiscard]] constexpr std::uint32_t home_shard(
    std::uint32_t account, std::uint32_t num_shards) noexcept {
  return account % num_shards;
}

/// Extra read / write accounts per TX, each drawn uniform in [0, max].
inline constexpr std::size_t kMaxExtraReads = 2;
inline constexpr std::size_t kMaxExtraWrites = 1;

struct AccountModelConfig {
  std::uint32_t num_accounts = 100'000;
  /// Shard count the cross_shard_ratio knob is calibrated against; must
  /// match the assembler's committee count for the knob to mean anything.
  std::uint32_t num_shards = 20;
  std::uint64_t txs_per_epoch = 20'000;
  /// Zipf skew s of account popularity: P(rank k) ∝ 1/(k+1)^s. 0 = uniform,
  /// ~1.1 matches measured Ethereum hot-account skew. Must be finite and
  /// >= 0.
  double zipf_skew = 1.1;
  /// Probability that a partner account is drawn placement-free (Zipf over
  /// all accounts, so almost surely homed elsewhere) instead of being
  /// snapped onto the sender's home shard. The knob of the ratio sweeps.
  double cross_shard_ratio = 0.1;
};

/// One epoch's account-based traffic, timestamp-sorted (ties by tx_id).
struct AccountEpoch {
  std::size_t epoch_index = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  std::vector<AccountTx> txs;
};

/// Deterministic per-epoch AccountTx generator. epoch_keyed(seed, k) is a
/// pure function of (seed, k): internally it derives three Rng::stream
/// substreams (arrival shape, account identity, set sizes) at salted
/// indices, so account-model streams never alias the pipeline's 4-slot
/// per-epoch streams even under a shared top-level seed.
class AccountTxGenerator {
 public:
  explicit AccountTxGenerator(AccountModelConfig config);

  [[nodiscard]] AccountEpoch epoch_keyed(std::uint64_t seed,
                                         std::size_t epoch_index) const;

  [[nodiscard]] const AccountModelConfig& config() const noexcept {
    return config_;
  }

 private:
  AccountModelConfig config_;
  common::ZipfSampler zipf_;
};

}  // namespace mvcom::txn
