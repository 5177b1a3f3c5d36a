#pragma once
// Overlay configuration — Elastico's stage 2, at the message level.
//
// After PoW assigns nodes to committees, "processors are configured to
// discover and identify each other by exchanging the committee membership"
// (§I). The canonical mechanism is a directory: every elected node sends a
// JOIN carrying its identity to the directory node; once the directory has
// heard from everyone it pushes the full membership list back out, and a
// node is *configured* when its list arrives. The directory's inbound and
// outbound message counts are both linear in the network size — this is the
// mechanism behind Fig. 2(a)'s linear growth of formation latency.
//
// ElasticoNetwork uses the closed-form linear model by default (fast); this
// module provides the real exchange for validation and the Fig. 2 bench.

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mvcom::sharding {

/// The directory's verification cost per identity in message-level overlay
/// mode (ElasticoConfig::message_level_overlay): each JOIN it handles, and
/// each network node in its final membership scan.
inline constexpr common::SimTime kOverlayIdentityProcessing{0.05};

struct OverlayResult {
  /// Instant each participant became configured (received the membership
  /// list), indexed like the `ready_at` argument; infinity = never (failed).
  std::vector<common::SimTime> configured_at;
  /// The directory's completion instant (all JOINs received).
  common::SimTime directory_complete = common::SimTime::infinity();
};

/// Runs one directory-mediated identity exchange over the simulator.
///
/// `participants[i]` is a network node; `ready_at[i]` is when it finished
/// PoW and sends its JOIN (absolute simulated time). `directory` is the
/// node collecting identities (typically the first solver). `per_identity
/// _processing` is the directory's handling cost per JOIN — the linear term.
/// Drives the simulator to quiescence before returning.
[[nodiscard]] OverlayResult run_overlay_configuration(
    sim::Simulator& simulator, net::Network& network,
    const std::vector<net::NodeId>& participants,
    const std::vector<common::SimTime>& ready_at, net::NodeId directory,
    common::SimTime per_identity_processing);

}  // namespace mvcom::sharding
