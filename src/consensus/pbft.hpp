#pragma once
// Message-level PBFT (Castro & Liskov, OSDI'99) simulation — the
// intra-committee consensus of Elastico stage 3.
//
// Each committee runs one PBFT instance per epoch to agree on its shard
// block. The simulation is faithful at the message level:
//   * three phases: PRE-PREPARE (leader), PREPARE, COMMIT;
//   * quorums: a replica is *prepared* after a matching pre-prepare plus 2f
//     PREPAREs, *committed-local* after being prepared plus 2f+1 COMMITs;
//   * view change: replicas that fail to commit before a timeout broadcast
//     VIEW-CHANGE for the next view; the new leader, on collecting 2f+1,
//     issues NEW-VIEW and re-proposes (we re-propose the original payload —
//     a simplification of the prepared-certificate transfer that preserves
//     both safety and liveness for the single-slot instances used here);
//   * faults: a faulty replica is a network-failed node (Network::set_failed,
//     the unanswered ping of paper §V-A) — it neither sends nor receives, so
//     a failed leader stalls its view until the view change replaces it.
//     Every live replica is honest, so an instance only ever circulates the
//     leader's one payload and the simulation tracks quorums, not digests.
//
// Latency realism: every delivered message incurs a per-replica verification
// delay (exponential, scaled by the replica's speed factor) on top of the
// network link delay — this is where the heterogeneous processing
// capability of committees (paper §I) enters the two-phase latency.

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"
#include "obs/context.hpp"
#include "sim/simulator.hpp"

namespace mvcom::obs {
class Counter;
}  // namespace mvcom::obs

namespace mvcom::consensus {

using common::Rng;
using common::SimTime;
using crypto::Digest;
using net::NodeId;

struct PbftConfig {
  SimTime view_change_timeout = SimTime(60.0);
  /// Mean of the per-message verification delay for a speed-1 replica.
  SimTime verification_mean = SimTime(0.5);
  /// Hard horizon: consensus aborts (committed=false) past this point.
  SimTime horizon = SimTime(3600.0);
};

/// Outcome of one consensus instance.
struct PbftResult {
  bool committed = false;          // did a quorum commit?
  SimTime latency = SimTime::zero();  // time until 2f+1 replicas committed
  std::uint64_t view_changes = 0;  // number of NEW-VIEW activations
  std::uint64_t messages = 0;      // protocol messages handed to the network
};

/// One PBFT committee. Owns its replicas' protocol state; network and
/// simulator are borrowed — the Elastico layer gives each committee a
/// private simulator lane + network, so a cluster only ever sees its own
/// fabric (DESIGN.md §12).
class PbftCluster {
 public:
  /// `members` maps replica index r to its network node id — committee
  /// membership is scattered over the global node-id space (assigned by
  /// PoW hash), so the mapping is explicit. n = members.size().
  PbftCluster(sim::Simulator& simulator, net::Network& network,
              PbftConfig config, Rng rng, std::vector<NodeId> members);

  /// Processing-speed factor of replica `r` (>1 = slower verification).
  void set_speed_factor(std::size_t r, double factor);

  /// f — the number of Byzantine replicas the quorum sizes tolerate.
  [[nodiscard]] std::size_t max_faulty() const noexcept {
    return (members_.size() - 1) / 3;
  }

  /// Arms one single-slot consensus instance on `payload` without driving
  /// the simulator — the caller runs it (Elastico lanes run many committees
  /// this way). `on_decided` fires exactly once: when a quorum commits, or
  /// at the horizon with committed=false. The leader proposes `payload`
  /// unchanged, so the simulated protocol never inspects it.
  void start_consensus(const Digest& payload,
                       std::function<void(const PbftResult&)> on_decided);

  /// Attaches observability: per-phase message counters, view-change and
  /// instance-outcome counters, and a sim-clocked consensus span per
  /// instance ('X' trace event covering start_consensus -> quorum commit).
  void set_obs(obs::ObsContext obs);

 private:
  enum class Phase : std::uint8_t {
    kPrePrepare,
    kPrepare,
    kCommit,
    kViewChange,
    kNewView,
  };

  /// An instance only ever circulates the leader's payload, so a message
  /// names no digest.
  struct Message {
    Phase phase;
    std::uint64_t view;
    std::size_t sender;  // replica index within the cluster
  };

  /// Flat replica-id set with a running count — replaces
  /// std::set<std::size_t> on the per-view quorum-counting hot path. One
  /// inline word covers committees up to 64 replicas (every configuration
  /// in this repo); larger memberships spill into a vector.
  class SenderBitset {
   public:
    /// Returns true when `r` was newly inserted.
    bool insert(std::size_t r) {
      std::uint64_t* w = &word0_;
      if (r >= 64) {
        const std::size_t idx = r / 64 - 1;
        if (spill_.size() <= idx) spill_.resize(idx + 1, 0);
        w = &spill_[idx];
      }
      const std::uint64_t bit = std::uint64_t{1} << (r % 64);
      if ((*w & bit) != 0) return false;
      *w |= bit;
      ++count_;
      return true;
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }

   private:
    std::uint64_t word0_ = 0;
    std::vector<std::uint64_t> spill_;
    std::uint16_t count_ = 0;
  };

  /// Per-view protocol bookkeeping of one replica.
  struct ViewState {
    bool preprepared = false;  // this view's pre-prepare was accepted
    bool sent_prepare = false;
    bool prepared = false;     // set when this replica sends its COMMIT
    SenderBitset prepares;
    SenderBitset commits;
  };

  struct Replica {
    double speed_factor = 1.0;
    std::uint64_t view = 0;
    std::vector<ViewState> views;            // indexed by view, grown on use
    std::vector<SenderBitset> view_changes;  // indexed by target view
    bool committed = false;
    sim::EventId view_timer{};
    /// Highest view this replica has voted a VIEW-CHANGE for. Escalates by
    /// one on every timeout without progress, so a run of faulty leaders
    /// cannot stall the protocol forever (liveness under repeated leader
    /// failure).
    std::uint64_t view_change_target = 0;
  };

  [[nodiscard]] std::size_t leader_of(std::uint64_t view) const noexcept {
    return view % members_.size();
  }
  /// 2f+1 — the prepare/commit quorum size.
  [[nodiscard]] std::size_t quorum() const noexcept {
    return 2 * max_faulty() + 1;
  }
  [[nodiscard]] NodeId node_of(std::size_t r) const noexcept {
    return members_[r];
  }
  [[nodiscard]] ViewState& view_state(Replica& rep, std::uint64_t view) {
    if (rep.views.size() <= view) {
      rep.views.resize(static_cast<std::size_t>(view) + 1);
    }
    return rep.views[static_cast<std::size_t>(view)];
  }
  [[nodiscard]] SenderBitset& view_change_set(Replica& rep,
                                              std::uint64_t target) {
    if (rep.view_changes.size() <= target) {
      rep.view_changes.resize(static_cast<std::size_t>(target) + 1);
    }
    return rep.view_changes[static_cast<std::size_t>(target)];
  }

  void send(std::size_t from, std::size_t to, Message msg);
  void broadcast(std::size_t from, const Message& msg);
  void handle(std::size_t r, const Message& msg);
  void on_preprepare(std::size_t r, const Message& msg);
  void on_prepare(std::size_t r, const Message& msg);
  void on_commit(std::size_t r, const Message& msg);
  void on_view_change(std::size_t r, const Message& msg);
  void on_new_view(std::size_t r, const Message& msg);
  void try_prepare(std::size_t r);
  void try_commit(std::size_t r);
  void enter_view(std::size_t r, std::uint64_t view);
  void arm_view_timer(std::size_t r);
  void propose(std::size_t leader);
  void finalize(bool committed_quorum);

  sim::Simulator& simulator_;
  net::Network& network_;
  PbftConfig config_;
  Rng rng_;
  std::vector<NodeId> members_;
  std::vector<Replica> replicas_;
  std::size_t committed_replicas_ = 0;
  PbftResult result_;
  bool instance_done_ = false;
  SimTime instance_start_ = SimTime::zero();
  sim::EventId horizon_event_{};
  std::function<void(const PbftResult&)> on_decided_;

  obs::ObsContext obs_;
  // Indexed by static_cast<std::size_t>(Phase).
  std::array<obs::Counter*, 5> obs_msg_{};
  obs::Counter* obs_view_changes_ = nullptr;
  obs::Counter* obs_committed_ = nullptr;
  obs::Counter* obs_aborted_ = nullptr;
};

}  // namespace mvcom::consensus
