#include "txn/workload.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace mvcom::txn {

std::uint64_t EpochWorkload::total_txs() const noexcept {
  return std::accumulate(reports.begin(), reports.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ShardReport& r) {
                           return acc + r.tx_count;
                         });
}

double EpochWorkload::max_latency() const noexcept {
  double best = 0.0;
  for (const ShardReport& r : reports) {
    best = std::max(best, r.two_phase_latency());
  }
  return best;
}

namespace {

constexpr double kFormationMeanSeconds = 600.0;  // PoW expectation (§VI-A)
constexpr double kConsensusMeanSeconds = 54.5;   // PBFT expectation (§VI-A)
/// Erlang stages of the formation latency. A committee is formed when its
/// c-th member finishes PoW — an order statistic of exponentials that
/// concentrates around the mean, which Erlang(c) models cleanly. This
/// matches Fig. 2(b), where formation latency is "randomly distributed
/// within a particular range" rather than heavy-tailed. (A single
/// exponential would make the epoch deadline t = max_i l_i an extreme
/// straggler and the N_min = 50%·|I| online constraint infeasible.)
constexpr int kFormationStages = 8;
/// Erlang stages of the consensus latency (3 PBFT voting phases).
constexpr int kConsensusStages = 3;

/// Erlang(k, mean/k): sum of k exponentials — mean preserved, variance
/// mean²/k.
double erlang(common::Rng& rng, double mean, int stages) {
  double total = 0.0;
  const double stage_mean = mean / static_cast<double>(stages);
  for (int s = 0; s < stages; ++s) total += rng.exponential(stage_mean);
  return total;
}

}  // namespace

TwoPhaseLatency sample_two_phase_latency(common::Rng& rng) {
  TwoPhaseLatency out;
  out.formation = erlang(rng, kFormationMeanSeconds, kFormationStages);
  out.consensus = erlang(rng, kConsensusMeanSeconds, kConsensusStages);
  return out;
}

double sample_submit_instant(common::Rng& rng,
                             const WorkloadConfig& /*config*/,
                             double window_close) {
  // Summed left-to-right from window_close: bitwise-identical to the
  // historical inline `window_close + lat.formation + lat.consensus`, so
  // adopting the helper never moves a digest or a baseline.
  const TwoPhaseLatency lat = sample_two_phase_latency(rng);
  return window_close + lat.formation + lat.consensus;
}

std::vector<std::uint64_t> deal_blocks(const Trace& trace, std::size_t shards,
                                       std::size_t count, common::Rng& rng) {
  if (shards == 0) throw std::invalid_argument("deal_blocks: shards > 0");
  if (shards > count || count > trace.blocks.size()) {
    throw std::invalid_argument(
        "deal_blocks: need shards <= count <= trace blocks");
  }
  std::vector<std::uint64_t> txs(shards, 0);
  std::vector<std::size_t> order(trace.blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(std::span<std::size_t>(order));
  for (std::size_t rank = 0; rank < count; ++rank) {
    const std::size_t shard =
        rank < shards ? rank : static_cast<std::size_t>(rng.below(shards));
    txs[shard] += trace.blocks[order[rank]].tx_count;
  }
  return txs;
}

WorkloadGenerator::WorkloadGenerator(Trace trace, WorkloadConfig config)
    : trace_(std::move(trace)), config_(config) {
  if (config_.num_committees == 0) {
    throw std::invalid_argument("WorkloadGenerator: need at least 1 committee");
  }
  if (config_.num_committees > trace_.blocks.size()) {
    throw std::invalid_argument(
        "WorkloadGenerator: more committees than trace blocks — every shard "
        "must contain at least one block");
  }
}

EpochWorkload WorkloadGenerator::epoch(common::Rng& rng) const {
  const std::size_t m = config_.num_committees;
  // One block per committee; the rest stay unused this epoch.
  const std::vector<std::uint64_t> txs = deal_blocks(trace_, m, m, rng);
  EpochWorkload workload;
  workload.reports.resize(m);
  for (std::size_t c = 0; c < m; ++c) {
    workload.reports[c].committee_id = static_cast<std::uint32_t>(c);
    workload.reports[c].tx_count = txs[c];
  }

  for (ShardReport& r : workload.reports) {
    const TwoPhaseLatency lat = sample_two_phase_latency(rng);
    r.formation_latency = lat.formation;
    r.consensus_latency = lat.consensus;
  }
  return workload;
}

EpochWorkload WorkloadGenerator::epoch_keyed(std::uint64_t seed,
                                             std::size_t epoch_index) const {
  common::Rng rng = common::Rng::stream(seed, epoch_index);
  return epoch(rng);
}

}  // namespace mvcom::txn
