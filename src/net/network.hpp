#pragma once
// Point-to-point message fabric over the discrete-event simulator.
//
// Delivery semantics: sends between live nodes always arrive, after a delay
// drawn from the link's latency model scaled by both endpoints' slowdown
// factors. Sends to or from a failed node are dropped — this is how a
// committee under DoS attack (paper §V-A) manifests: its pings never return,
// so its measured latency reads as infinity.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "net/latency.hpp"
#include "obs/context.hpp"
#include "sim/simulator.hpp"

namespace mvcom::obs {
class Counter;
class LogHistogram;
}  // namespace mvcom::obs

namespace mvcom::net {

using NodeId = std::uint32_t;

/// The simulated network connecting `node_count` nodes.
class Network {
 public:
  /// Takes a private RNG (fork one from the experiment's root engine) and a
  /// latency model shared by all links.
  Network(sim::Simulator& simulator, Rng rng,
          std::shared_ptr<const LatencyModel> link_model,
          std::size_t node_count);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return factors_.size();
  }

  /// Per-node delay multiplier (>= 1 slow node, < 1 fast node). Models
  /// heterogeneous connectivity. Precondition: factor > 0.
  void set_delay_factor(NodeId node, double factor);

  /// Marks a node failed/recovered. Failed nodes neither send nor receive.
  void set_failed(NodeId node, bool failed);
  [[nodiscard]] bool is_failed(NodeId node) const;

  /// Independent per-message loss probability (0 = reliable, the default).
  /// Lost messages count as dropped in the telemetry. Quorum-based
  /// protocols (PBFT) survive moderate loss through their redundancy and
  /// view-change retries — tested in test_pbft.
  void set_loss_probability(double p);
  [[nodiscard]] double loss_probability() const noexcept { return loss_; }

  /// Samples the one-way delay from `from` to `to` without sending.
  [[nodiscard]] SimTime sample_delay(NodeId from, NodeId to);

  /// Sends a message: schedules `on_deliver` after a sampled delay, unless
  /// either endpoint is failed (then the message is silently dropped).
  /// Returns true if the message was accepted into the network.
  /// Accepts any callable and forwards it straight into the simulator's
  /// inline event storage — the hot PBFT message path stays allocation-free.
  template <typename F>
  bool send(NodeId from, NodeId to, F&& on_deliver) {
    const SendPlan plan = plan_send(from, to);
    if (!plan.deliver) return false;
    if (obs_.trace() != nullptr) {
      // Wrap delivery so the trace shows the in-flight span: an 'X' event of
      // `delay` seconds recorded at delivery time (the exporter rewinds the
      // start timestamp by the duration).
      simulator_.schedule_after(
          plan.delay, [this, from, to, delay = plan.delay,
                       cb = std::forward<F>(on_deliver)]() mutable {
            trace_delivery(from, to, delay);
            cb();
          });
    } else {
      simulator_.schedule_after(plan.delay, std::forward<F>(on_deliver));
    }
    return true;
  }

  /// Ping round-trip estimate: 2x one-way mean for live nodes, infinity for
  /// failed ones. This is the failure detector the final committee runs.
  [[nodiscard]] SimTime ping_rtt(NodeId from, NodeId to);

  // Telemetry.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return dropped_;
  }

  /// Attaches observability: message counters, a one-way delay histogram,
  /// and per-message deliver/drop trace events (sim-clocked).
  void set_obs(obs::ObsContext obs);

 private:
  /// Outcome of the pre-delivery bookkeeping shared by every send: drop
  /// decisions, counters, and the sampled delay.
  struct SendPlan {
    bool deliver;
    SimTime delay;
  };
  SendPlan plan_send(NodeId from, NodeId to);
  void trace_delivery(NodeId from, NodeId to, SimTime delay);

  sim::Simulator& simulator_;
  Rng rng_;
  std::shared_ptr<const LatencyModel> link_model_;
  std::vector<double> factors_;
  std::vector<bool> failed_;
  double loss_ = 0.0;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;

  obs::ObsContext obs_;
  obs::Counter* obs_sent_ = nullptr;
  obs::Counter* obs_pings_ = nullptr;
  obs::Counter* obs_dropped_failed_ = nullptr;
  obs::Counter* obs_dropped_loss_ = nullptr;
  obs::LogHistogram* obs_delay_ = nullptr;
};

}  // namespace mvcom::net
