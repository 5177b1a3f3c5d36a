#pragma once
// Epoch-randomness refreshing — Elastico's stage 5.
//
// "The final committee generates a set of random strings, which are used to
// help other committees form new ones in the next epoch" (§I). The standard
// construction is commit-reveal: every final-committee member commits
// H(r_i), then reveals r_i; the beacon output is H(r_1 ‖ r_2 ‖ ...) over
// the reveals whose commitments verify. With at least one honest
// contributor the output is unpredictable to any coalition that fixed its
// values before seeing the honest reveal.
//
// The protocol here runs over the simulated network: COMMIT messages to the
// beacon leader, then REVEAL after the leader announces the commit set is
// closed, with a reveal deadline so withholding members are simply excluded
// (their committed entropy is dropped — the classic last-revealer caveat is
// documented and tested, not hidden).

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mvcom::sharding {

struct BeaconResult {
  std::string randomness;               // hex output of the beacon
  std::size_t commits = 0;              // members whose commitment arrived
  std::size_t reveals = 0;              // verified reveals folded in
  std::vector<bool> revealed;           // per-member participation
  common::SimTime completed_at = common::SimTime::zero();
};

/// One commit-reveal round among `members` (network nodes); members[0]
/// coordinates. `withholding[i]` = member i commits but never reveals.
/// The leader closes the commit phase 30 s after it opens (or once every
/// commit arrived) and the reveal phase 30 s after that. Drives the
/// simulator to quiescence before returning.
[[nodiscard]] BeaconResult run_commit_reveal_beacon(
    sim::Simulator& simulator, net::Network& network, common::Rng& rng,
    const std::vector<net::NodeId>& members,
    const std::vector<bool>& withholding);

}  // namespace mvcom::sharding
