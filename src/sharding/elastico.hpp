#pragma once
// Elastico-style sharded-blockchain substrate (Luu et al., CCS'16) — the
// system whose per-epoch two-phase latency motivates MVCom.
//
// One epoch runs the paper's five stages (§I):
//   1. Committee formation — every node solves a PoW puzzle seeded with the
//      previous epoch randomness; the solution hash's low bits assign the
//      node to a committee. A committee is *formed* when its
//      `committee_size`-th member has solved.
//   2. Overlay configuration — members discover each other by exchanging
//      identities through the directory; cost grows linearly with the
//      network size (this is why Fig. 2(a)'s formation latency scales
//      linearly with the number of nodes).
//   3. Intra-committee consensus — each committee runs message-level PBFT
//      (consensus/pbft) on the Merkle root of its shard's blocks. The
//      committees are mutually independent until the final committee, so
//      each one runs on its own simulator *lane* (private event fabric,
//      private network, pre-forked RNG substream); lanes execute inline or
//      on a pool the caller lends — bitwise-identical results either way
//      (the determinism contract, DESIGN.md §12).
//   4. Final consensus — the designated final committee waits for shard
//      submissions up to a deadline policy, then runs PBFT over the
//      selected union to produce the global block. A pluggable
//      `CommitteeScheduler` decides *which* submissions to include — this
//      is the seam MVCom plugs into.
//   5. Epoch randomness — the final committee derives the next epoch's
//      randomness from the final block.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/root_chain.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "consensus/pbft.hpp"
#include "net/network.hpp"
#include "obs/context.hpp"
#include "sharding/lane.hpp"
#include "sim/simulator.hpp"
#include "txn/trace.hpp"
#include "txn/workload.hpp"

namespace mvcom::common {
class ThreadPool;
}  // namespace mvcom::common

namespace mvcom::sharding {

using common::Rng;
using common::SimTime;

struct ElasticoConfig {
  /// At most 2^32 - 1: nodes are addressed by 32-bit `net::NodeId`s.
  std::size_t num_nodes = 256;
  /// Nodes per committee (Elastico's c). The first `committee_size` solvers
  /// of each committee run its PBFT instance.
  std::size_t committee_size = 8;
  /// Number of committees = 2^committee_bits; the last one is the final
  /// committee, the rest are member committees processing shards.
  int committee_bits = 4;
  /// Expected PoW solve latency of a reference node (paper §VI-A: 600 s).
  SimTime pow_expected_solve = SimTime(600.0);
  /// Overlay identity-exchange cost per network node — formation latency
  /// includes `num_nodes * overlay_cost_per_node` (linear in network size).
  SimTime overlay_cost_per_node = SimTime(0.08);
  /// Mean one-way link latency between any two nodes.
  SimTime link_latency_mean = SimTime(2.0);
  consensus::PbftConfig pbft{};
  /// Run stage 2 as the actual directory JOIN/membership exchange
  /// (sharding/overlay) instead of the closed-form linear model. Slower but
  /// message-accurate; the directory is each committee's first solver.
  bool message_level_overlay = false;
};

/// Per-committee outcome of one epoch.
struct CommitteeOutcome {
  std::uint32_t committee_id = 0;
  std::size_t member_count = 0;
  SimTime formation_latency = SimTime::zero();   // stage 1+2
  SimTime consensus_latency = SimTime::zero();   // stage 3
  bool committed = false;
  std::uint64_t view_changes = 0;
  std::uint64_t tx_count = 0;                    // TXs packaged in its shard

  /// l_i of the paper — formation plus intra-committee consensus.
  [[nodiscard]] SimTime two_phase_latency() const noexcept {
    return formation_latency + consensus_latency;
  }
};

/// A scheduler decides which submitted shards join the final consensus.
/// Input: all committee reports that committed (sorted by committee id).
/// Output: selected committee ids. The default waits for everything.
using CommitteeScheduler =
    std::function<std::vector<std::uint32_t>(const std::vector<CommitteeOutcome>&)>;

/// Runs a whole epoch's lane tasks and fills `results` (one slot per task,
/// same index). Without one, run_epoch dispatches `run_committee_lane`
/// inline or on the lent pool; src/fabric installs one that ships the tasks
/// to worker processes over the binary wire format. Every executor must
/// fill `results[c]` from tasks[c] alone — the coordinator merges in
/// committee order, so any conforming executor produces bitwise-identical
/// epochs.
using LaneExecutor =
    std::function<void(std::vector<LaneTask>&, std::vector<LaneResult>&)>;

struct EpochOutcome {
  std::vector<CommitteeOutcome> committees;  // member committees only
  std::vector<std::uint32_t> selected;       // shards included in final block
  bool final_committed = false;
  SimTime final_consensus_latency = SimTime::zero();
  /// Absolute simulated time when the final block was committed.
  SimTime epoch_makespan = SimTime::zero();
  std::uint64_t final_block_txs = 0;
  std::string next_epoch_randomness;
  /// Per-lane Simulator::order_digest values folded in committee order
  /// (members first, then the final-consensus fabric) — equal across lane
  /// pools and executors iff every lane fired the same events in the same
  /// order (each PBFT round through its decision event, where its simulator
  /// stops). The determinism matrix test compares it across worker counts
  /// and pins each scenario's value, with observability attached and not.
  std::uint64_t event_order_digest = 0;
  /// Total DES events executed across all lanes this epoch.
  std::uint64_t events_executed = 0;

  /// Bridges to the MVCom problem input: one ShardReport per committed
  /// member committee.
  [[nodiscard]] std::vector<txn::ShardReport> reports() const;
};

/// The whole sharded network. Construct once; run epochs.
class ElasticoNetwork {
 public:
  /// `pool`, when non-null, runs each epoch's committee lanes; otherwise
  /// they run inline on the calling thread. The network borrows it, so it
  /// must outlive the network. Results are bitwise identical with or
  /// without it, at any pool size.
  ElasticoNetwork(ElasticoConfig config, Rng rng,
                  common::ThreadPool* pool = nullptr);

  /// Runs one full epoch over the given trace blocks. `scheduler` selects
  /// the shards for final consensus (nullptr = include all committed).
  EpochOutcome run_epoch(const txn::Trace& trace,
                         CommitteeScheduler scheduler = nullptr);

  [[nodiscard]] std::size_t num_committees() const noexcept {
    return std::size_t{1} << committee_bits_unsigned();
  }
  [[nodiscard]] std::size_t num_member_committees() const noexcept {
    return num_committees() - 1;
  }
  [[nodiscard]] const std::string& epoch_randomness() const noexcept {
    return randomness_;
  }
  [[nodiscard]] const ElasticoConfig& config() const noexcept { return config_; }

  /// The root chain this network extends — one global block per epoch whose
  /// final consensus committed (stage 4's output, §I).
  [[nodiscard]] const chain::RootChain& root_chain() const noexcept {
    return chain_;
  }

  /// Attaches observability to every lane's simulator, network, and PBFT
  /// cluster from the next run_epoch on. Counters are sharded atomics and
  /// the trace ring append is mutex-protected, so parallel lanes may emit
  /// concurrently; only the interleaving of trace events (never any epoch
  /// result) depends on the worker count.
  void set_obs(obs::ObsContext obs) noexcept { obs_ = obs; }

  /// Runs the lanes on a custom executor (the process fabric) instead of
  /// inline or on the lent pool. Pass nullptr to restore the default. The
  /// executor never affects seed draws or merge order, so results stay
  /// bitwise-identical to the in-process path — test_fabric diffs the
  /// digests to prove it.
  void set_lane_executor(LaneExecutor executor) {
    lane_executor_ = std::move(executor);
  }

 private:
  [[nodiscard]] unsigned committee_bits_unsigned() const noexcept {
    return static_cast<unsigned>(config_.committee_bits);
  }

  ElasticoConfig config_;
  Rng rng_;
  common::ThreadPool* pool_ = nullptr;  // lent; null: lanes run inline
  obs::ObsContext obs_;
  LaneExecutor lane_executor_;
  std::vector<double> hash_rates_;    // per-node relative PoW speed
  std::vector<double> verify_speeds_; // per-node PBFT verification factor
  std::string randomness_;            // current epoch randomness
  std::uint64_t epoch_index_ = 0;
  chain::RootChain chain_;
};

}  // namespace mvcom::sharding
