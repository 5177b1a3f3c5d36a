#include "txn/accounts/model.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "txn/trace.hpp"

namespace mvcom::txn {

namespace {

/// Substream slots of one account-model epoch. Salted far away from the
/// pipeline's 4·epoch+slot indices (which stay < 2^32 for any realistic
/// run) so a shared top-level seed never aliases the two families.
constexpr std::uint64_t kAccountStreamBase = std::uint64_t{1} << 40;
enum Slot : std::uint64_t {
  kArrivalSlot = 0,   // burst membership + timestamps
  kIdentitySlot = 1,  // Zipf account draws + cross/intra coin
  kShapeSlot = 2,     // read/write set sizes
};

/// Epoch window length W (seconds): epoch k spans
/// [kTraceStartSeconds + k·W, kTraceStartSeconds + (k+1)·W).
constexpr double kWindowSeconds = 1500.0;

/// Burst arrival: this fraction of an epoch's TXs lands inside
/// kBurstsPerEpoch sub-windows, each kBurstWidthFraction of the window
/// wide; the rest arrives uniformly.
constexpr double kBurstFraction = 0.2;
constexpr std::size_t kBurstsPerEpoch = 3;
constexpr double kBurstWidthFraction = 0.02;

std::uint64_t slot_index(std::size_t epoch, Slot slot) noexcept {
  return kAccountStreamBase + 3 * static_cast<std::uint64_t>(epoch) + slot;
}

}  // namespace

AccountTxGenerator::AccountTxGenerator(AccountModelConfig config)
    : config_(config), zipf_(config.num_accounts, config.zipf_skew) {
  if (config_.num_accounts == 0 || config_.num_shards == 0) {
    throw std::invalid_argument(
        "AccountTxGenerator: accounts and shards must be >= 1");
  }
  if (config_.num_accounts < 2 * config_.num_shards) {
    throw std::invalid_argument(
        "AccountTxGenerator: need >= 2 accounts per shard so intra-shard "
        "partner snapping has a target on every shard");
  }
  if (!(config_.cross_shard_ratio >= 0.0 && config_.cross_shard_ratio <= 1.0)) {
    throw std::invalid_argument(
        "AccountTxGenerator: cross_shard_ratio must lie in [0, 1]");
  }
}

AccountEpoch AccountTxGenerator::epoch_keyed(std::uint64_t seed,
                                             std::size_t epoch_index) const {
  common::Rng arrival =
      common::Rng::stream(seed, slot_index(epoch_index, kArrivalSlot));
  common::Rng identity =
      common::Rng::stream(seed, slot_index(epoch_index, kIdentitySlot));
  common::Rng shape =
      common::Rng::stream(seed, slot_index(epoch_index, kShapeSlot));

  AccountEpoch epoch;
  epoch.epoch_index = epoch_index;
  epoch.window_start =
      kTraceStartSeconds + static_cast<double>(epoch_index) * kWindowSeconds;
  epoch.window_end = epoch.window_start + kWindowSeconds;

  // Burst sub-windows: centers drawn once per epoch, wide enough to stay
  // inside the window.
  const double width = kBurstWidthFraction * kWindowSeconds;
  std::array<double, kBurstsPerEpoch> burst_starts{};
  for (double& b : burst_starts) {
    b = epoch.window_start +
        arrival.uniform01() * (kWindowSeconds - width);
  }

  const std::uint32_t s = config_.num_shards;
  const auto snap_to = [&](std::uint32_t account,
                           std::uint32_t shard) -> std::uint32_t {
    // a − a%S + shard lands on `shard` while preserving the Zipf rank band;
    // fold back by one stride when it falls off the account range.
    std::uint32_t snapped = account - home_shard(account, s) + shard;
    if (snapped >= config_.num_accounts) snapped -= s;
    return snapped;
  };

  epoch.txs.resize(config_.txs_per_epoch);
  for (std::uint64_t t = 0; t < config_.txs_per_epoch; ++t) {
    AccountTx& tx = epoch.txs[t];
    tx.tx_id = static_cast<std::uint64_t>(epoch_index) * config_.txs_per_epoch + t;

    if (arrival.bernoulli(kBurstFraction)) {
      const std::size_t burst = arrival.below(kBurstsPerEpoch);
      tx.timestamp = burst_starts[burst] + arrival.uniform01() * width;
    } else {
      tx.timestamp =
          epoch.window_start + arrival.uniform01() * kWindowSeconds;
    }

    tx.sender = zipf_(identity);
    const std::uint32_t home = home_shard(tx.sender, s);

    const std::size_t extra_reads = shape.below(kMaxExtraReads + 1);
    const std::size_t extra_writes = shape.below(kMaxExtraWrites + 1);
    const auto add_partner = [&](std::vector<std::uint32_t>& set) {
      std::uint32_t partner = zipf_(identity);
      if (!identity.bernoulli(config_.cross_shard_ratio)) {
        partner = snap_to(partner, home);
      }
      if (partner == tx.sender) return;  // dedupe, fixed draw count
      const auto dup = [partner](const std::vector<std::uint32_t>& v) {
        return std::find(v.begin(), v.end(), partner) != v.end();
      };
      if (dup(tx.reads) || dup(tx.writes)) return;
      set.push_back(partner);
    };
    for (std::size_t i = 0; i < extra_writes; ++i) add_partner(tx.writes);
    for (std::size_t i = 0; i < extra_reads; ++i) add_partner(tx.reads);
  }

  std::sort(epoch.txs.begin(), epoch.txs.end(),
            [](const AccountTx& a, const AccountTx& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              return a.tx_id < b.tx_id;
            });
  return epoch;
}

}  // namespace mvcom::txn
