#pragma once
// Epoch workload synthesis — the direct input to the MVCom problem.
//
// Following §VI-A of the paper: for each epoch, the trace's blocks are
// divided into groups to simulate the shards generated by member committees;
// each shard's TX count accumulates its blocks' counts. A committee's
// two-phase latency is the sum of
//   * formation latency — PoW solve time, Exp(600 s); and
//   * consensus latency — PBFT three-stage voting time, expectation 54.5 s,
//     modelled as Erlang(3) (sum of the three stage votes, "pre-preparation,
//     preparation, and commit").
// The `sharding` module produces the same ShardReport type from an actual
// message-level Elastico simulation; this generator is the fast calibrated
// path the paper's large sweeps use.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "txn/trace.hpp"

namespace mvcom::txn {

/// What a member committee reports to the final committee at an epoch:
/// "the two most important features ... a) the two-phase latency, and b) the
/// number of transactions packaged in the shard" (§III-A).
struct ShardReport {
  std::uint32_t committee_id = 0;
  std::uint64_t tx_count = 0;           // s_i
  double formation_latency = 0.0;       // seconds
  double consensus_latency = 0.0;       // seconds

  /// l_i — the two-phase latency.
  [[nodiscard]] double two_phase_latency() const noexcept {
    return formation_latency + consensus_latency;
  }
};

/// One epoch's worth of committee reports.
struct EpochWorkload {
  std::vector<ShardReport> reports;

  [[nodiscard]] std::uint64_t total_txs() const noexcept;
  /// max_i l_i — the default deadline t_j (§III-A: t_j = max_i l_i).
  [[nodiscard]] double max_latency() const noexcept;
};

struct WorkloadConfig {
  std::size_t num_committees = 50;
};

/// Deals trace blocks into `shards` groups and returns each group's TX
/// count. One shuffle of the block order; rank r < shards goes to group r,
/// so no group is empty, ranks shards..count−1 go to uniformly drawn groups,
/// and ranks from `count` on stay undealt. Elastico deals every block;
/// WorkloadGenerator deals one per group. Throws std::invalid_argument
/// unless 0 < shards <= count <= #blocks.
[[nodiscard]] std::vector<std::uint64_t> deal_blocks(const Trace& trace,
                                                     std::size_t shards,
                                                     std::size_t count,
                                                     common::Rng& rng);

/// Builds per-epoch workloads from a trace, deterministically per (seed,
/// epoch): each committee packages one trace block, sampled without
/// replacement (deal_blocks with count = shards). This matches the paper's
/// parameter regime: with Ĉ = 1000·|I| and N_min = 50%·|I|, shards of
/// ~1088 TXs make the capacity constraint a genuine knapsack (≈73–92% of
/// the total fits) while N_min stays satisfiable; dealing all 1378 blocks
/// would make N_min infeasible. Precondition: num_committees <= #blocks.
class WorkloadGenerator {
 public:
  WorkloadGenerator(Trace trace, WorkloadConfig config);

  /// Generates one epoch's workload; successive calls with the same engine
  /// yield the successive epochs of a run.
  [[nodiscard]] EpochWorkload epoch(common::Rng& rng) const;

  /// Keyed variant: epoch `epoch_index` as a pure function of (seed,
  /// epoch_index) via Rng::stream — epoch k's workload is the same no
  /// matter how many epochs were generated before it. Multi-epoch
  /// adversarial campaigns rely on this for replay: re-running any prefix
  /// (or a single epoch in isolation) reproduces identical honest inputs.
  [[nodiscard]] EpochWorkload epoch_keyed(std::uint64_t seed,
                                          std::size_t epoch_index) const;

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const WorkloadConfig& config() const noexcept { return config_; }

 private:
  Trace trace_;
  WorkloadConfig config_;
};

/// Draws a two-phase latency pair per the paper's model. Exposed separately
/// so tests can validate the marginals (Exp(600) + Erlang(3, 54.5/3)).
struct TwoPhaseLatency {
  double formation;
  double consensus;

  [[nodiscard]] double total() const noexcept { return formation + consensus; }
};
/// The model's means and Erlang stage counts are fixed constants
/// (workload.cpp); no WorkloadConfig field changes them, so `config` is
/// unused.
[[nodiscard]] TwoPhaseLatency sample_two_phase_latency(
    common::Rng& rng, const WorkloadConfig& config);

/// Absolute submission instant of a committee whose epoch window closes at
/// `window_close`: the window edge plus one two-phase completion, on the
/// trace clock. Pipeline stage A is its one carry-over caller outside
/// perfbench/ (the multi-epoch bench runs on the pipeline), so no second
/// latency model can drift from it. Consumes exactly the engine steps of one
/// sample_two_phase_latency call.
[[nodiscard]] double sample_submit_instant(common::Rng& rng,
                                           const WorkloadConfig& config,
                                           double window_close);

}  // namespace mvcom::txn
