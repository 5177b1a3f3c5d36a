#pragma once
// One committee's stage-2/3 lane as a pure value → pure function.
//
// PR 5 established the lane determinism contract *inside* one process: every
// lane draws only from RNG substreams forked serially in committee order
// before any lane runs, and lane outcomes merge back in committee order, so
// the worker count never changes results. This header lifts the lane out of
// `ElasticoNetwork::run_epoch`'s closure into an explicit (LaneTask →
// LaneResult) function of a plain value — which is what lets the same lane
// run on a thread in this process (the in-process path), or in a *separate
// worker process* connected by a pipe (src/fabric), and produce bitwise-
// identical results either way. A LaneTask carries everything the lane
// touches: the epoch context, the committee's membership, and the three
// pre-drawn RNG seeds; `run_committee_lane` builds a private Simulator +
// Network (+ PbftCluster) from nothing else.
//
// Serializability is a design constraint, not an accident: every field is a
// scalar, a string, or a flat vector, so the fabric wire format
// (fabric/wire.hpp) encodes a task frame without touching this code.

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "consensus/pbft.hpp"
#include "net/network.hpp"
#include "obs/context.hpp"

namespace mvcom::sharding {

using common::SimTime;

/// Everything one committee lane consumes. Built serially, in committee
/// order, by the coordinator (`run_epoch`); consumed by `run_committee_lane`
/// on any thread or in any process.
struct LaneTask {
  // --- identity / role ---
  std::uint32_t committee_id = 0;
  /// Ids below this bound are member committees (they run stage-3 PBFT);
  /// the id equal to it is the final committee (its lane runs only the
  /// message-level overlay exchange — stage 4 happens coordinator-side).
  std::uint32_t member_committees = 0;
  /// False for under-populated committees: the lane is a no-op and the
  /// result keeps its zero digest (the merge folds it unchanged).
  bool armed = false;

  // --- epoch-wide context ---
  bool message_level_overlay = false;
  std::uint32_t num_nodes = 0;
  SimTime link_latency_mean = SimTime::zero();
  double message_loss_probability = 0.0;
  SimTime overlay_identity_processing = SimTime::zero();
  consensus::PbftConfig pbft{};
  /// Current epoch randomness — seeds the shard payload hash.
  std::string randomness;

  // --- pre-drawn RNG seeds (serial, committee order — the contract) ---
  std::uint64_t overlay_seed = 0;  // message-level overlay fabric only
  std::uint64_t net_seed = 0;      // the lane's Network
  std::uint64_t cluster_seed = 0;  // the lane's PbftCluster

  // --- committee payload ---
  /// Closed-form formation instant (PoW + linear overlay). In message-level
  /// overlay mode the lane recomputes formation from the exchange instead.
  SimTime formation = SimTime::infinity();
  std::uint64_t shard_txs = 0;  // member committees only
  std::vector<net::NodeId> participants;
  /// PoW solve instants, aligned with `participants` (overlay mode only).
  std::vector<SimTime> ready_at;
  /// Per-participant PBFT verification speed factors.
  std::vector<double> verify_speeds;
  /// Per-participant this-epoch failure flags (1 = offline all epoch).
  std::vector<std::uint8_t> failed;
};

/// What a lane reports back. Plain scalars, merged in committee order.
struct LaneResult {
  std::uint32_t committee_id = 0;
  /// False when the lane never ran (unarmed) or the message-level overlay
  /// exchange failed — the coordinator then clears the committee's
  /// membership, exactly as the in-closure code did.
  bool formed = false;
  bool committed = false;
  /// Realized formation instant (== task.formation unless the lane ran the
  /// message-level exchange). Valid only when `formed`.
  SimTime formation = SimTime::infinity();
  SimTime consensus_latency = SimTime::zero();
  std::uint64_t view_changes = 0;
  /// FNV-1a fold of the lane's simulator order digests; 0 for unarmed
  /// lanes, the basis value for armed lanes that scheduled nothing.
  std::uint64_t order_digest = 0;
  std::uint64_t events_executed = 0;
};

/// Runs one PBFT round on `payload` from `start` to quiescence, on a fresh
/// fabric built from `task`'s seeds, participants, failure flags and speed
/// factors: a member lane's stage 3, or stage 4 on the final committee's
/// task. Fills the consensus fields, `order_digest` (this round's simulator
/// alone) and `events_executed`.
[[nodiscard]] LaneResult run_pbft_round(const LaneTask& task, SimTime start,
                                        const crypto::Digest& payload,
                                        obs::ObsContext obs);

/// Runs one committee lane to quiescence on a private event fabric. Pure in
/// `task` (obs attachment never changes results — the PR 3 contract), so two
/// calls with equal tasks produce equal results in any process, which is
/// both the fabric's determinism witness and its crash-replay mechanism.
[[nodiscard]] LaneResult run_committee_lane(const LaneTask& task,
                                            obs::ObsContext obs = {});

}  // namespace mvcom::sharding
