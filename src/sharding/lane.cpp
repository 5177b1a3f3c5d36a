#include "sharding/lane.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/latency.hpp"
#include "sharding/overlay.hpp"
#include "sim/simulator.hpp"

namespace mvcom::sharding {

using common::fnv1a_mix;
using common::kFnv1aBasis;
using common::Rng;

namespace {

// The link model is stateless (all sampling goes through each fabric's own
// Network RNG), so a fresh instance with the epoch's parameters is
// indistinguishable from one shared across fabrics.
std::shared_ptr<const net::LatencyModel> link_of(const LaneTask& task) {
  return std::make_shared<net::LognormalLatency>(
      task.link_latency_mean,
      SimTime(0.5 * task.link_latency_mean.seconds()));
}

}  // namespace

LaneResult run_pbft_round(const LaneTask& task, SimTime start,
                          const crypto::Digest& payload, obs::ObsContext obs) {
  sim::Simulator sim;
  sim.set_obs(obs);
  net::Network network(sim, Rng(task.net_seed), link_of(task), task.num_nodes);
  network.set_obs(obs);
  consensus::PbftCluster cluster(sim, network, task.pbft,
                                 Rng(task.cluster_seed), task.participants);
  cluster.set_obs(obs);
  for (std::size_t r = 0; r < task.participants.size(); ++r) {
    cluster.set_speed_factor(r, task.verify_speeds[r]);
  }
  LaneResult result;
  bool decided = false;
  sim.schedule_at(start, [&] {
    cluster.start_consensus(payload, [&](const consensus::PbftResult& res) {
      result.committed = res.committed;
      result.consensus_latency = res.latency;
      result.view_changes = res.view_changes;
      decided = true;
      sim.stop();
    });
  });
  // Run the round to its decision (the cluster's horizon event bounds it).
  // The messages still in flight then would reach a finished instance and
  // change nothing, so they never fire: they die queued with this frame.
  sim.run();
  assert(decided);
  result.order_digest = sim.order_digest();
  result.events_executed = sim.events_executed();
  return result;
}

LaneResult run_committee_lane(const LaneTask& task, obs::ObsContext obs) {
  LaneResult result;
  result.committee_id = task.committee_id;
  if (!task.armed) return result;

  result.order_digest = kFnv1aBasis;
  result.formation = task.formation;

  if (task.message_level_overlay) {
    // Stage 2 as the real directory exchange: the first solver collects
    // JOINs from its committee peers plus one identity announcement per
    // network node (the Elastico directory learns the whole membership —
    // the linear-in-N term), then pushes the list back out. Each exchange
    // runs on an isolated event fabric so its absolute-time scheduling
    // cannot collide with the other committees' stages.
    sim::Simulator overlay_sim;
    overlay_sim.set_obs(obs);
    net::Network overlay_net(overlay_sim, Rng(task.overlay_seed),
                             link_of(task), task.num_nodes);
    overlay_net.set_obs(obs);
    const OverlayResult exchanged = run_overlay_configuration(
        overlay_sim, overlay_net, task.participants, task.ready_at,
        task.participants.front(), kOverlayIdentityProcessing);
    result.order_digest =
        fnv1a_mix(result.order_digest, overlay_sim.order_digest());
    result.events_executed += overlay_sim.events_executed();
    // Directory-side verification of the *network-wide* identity list. The
    // lane's overlay network has no failed node and loses no message, so
    // every member configures.
    const SimTime directory_scan =
        SimTime(static_cast<double>(task.num_nodes) *
                kOverlayIdentityProcessing.seconds());
    SimTime configured = SimTime::zero();
    for (const SimTime t : exchanged.configured_at) {
      configured = std::max(configured, t);
    }
    result.formation = configured + directory_scan;
  }

  if (task.committee_id < task.member_committees) {
    // The simulated protocol never reads a payload
    // (PbftCluster::start_consensus), so a member lane hashes none.
    const LaneResult round =
        run_pbft_round(task, result.formation, crypto::Digest{}, obs);
    result.committed = round.committed;
    result.consensus_latency = round.consensus_latency;
    result.view_changes = round.view_changes;
    result.order_digest = fnv1a_mix(result.order_digest, round.order_digest);
    result.events_executed += round.events_executed;
  }
  return result;
}

}  // namespace mvcom::sharding
