#include "sharding/randomness.hpp"

#include <memory>
#include <stdexcept>

namespace mvcom::sharding {

namespace {
/// Sim-clock budget of each phase: commits close this long after the round
/// opens at the latest, and reveals this long after commits close.
constexpr common::SimTime kRevealTimeout = common::SimTime(30.0);
}  // namespace

BeaconResult run_commit_reveal_beacon(sim::Simulator& simulator,
                                      net::Network& network, common::Rng& rng,
                                      const std::vector<net::NodeId>& members,
                                      const std::vector<bool>& withholding) {
  if (members.empty() || members.size() != withholding.size()) {
    throw std::invalid_argument(
        "run_commit_reveal_beacon: members/withholding mismatch");
  }
  const net::NodeId leader = members[0];
  const std::size_t n = members.size();

  // Each member's secret contribution and its commitment.
  std::vector<std::string> secrets(n);
  std::vector<crypto::Digest> commitments(n);
  for (std::size_t i = 0; i < n; ++i) {
    secrets[i] = "r-" + std::to_string(rng());
    commitments[i] = crypto::Sha256::hash(secrets[i]);
  }

  struct LeaderState {
    std::vector<bool> committed;
    std::vector<bool> revealed;
    std::size_t commit_count = 0;
    bool commits_closed = false;
    bool done = false;
  };
  auto state = std::make_shared<LeaderState>();
  state->committed.assign(n, false);
  state->revealed.assign(n, false);

  BeaconResult result;
  result.revealed.assign(n, false);

  auto finalize = [&, state] {
    if (state->done) return;
    state->done = true;
    crypto::Sha256 h;
    for (std::size_t i = 0; i < n; ++i) {
      if (!state->revealed[i]) continue;
      // Reveal verification: the preimage must match the commitment.
      if (crypto::Sha256::hash(secrets[i]) != commitments[i]) continue;
      h.update(secrets[i]);
      h.update("|");
      ++result.reveals;
      result.revealed[i] = true;
    }
    result.commits = state->commit_count;
    result.randomness = crypto::to_hex(h.finalize());
    result.completed_at = simulator.now();
  };

  // Phase 2 trigger: once all commits are in (or immediately for n == 1),
  // the leader requests reveals and arms the reveal deadline.
  auto close_commits = [&, state, leader, n] {
    if (state->commits_closed) return;
    state->commits_closed = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (withholding[i]) continue;  // withholder ignores the request
      const std::size_t member = i;
      // REVEAL-REQUEST out, REVEAL back.
      network.send(leader, members[i], [&, state, member, leader] {
        network.send(members[member], leader, [state, member] {
          if (!state->done) state->revealed[member] = true;
        });
      });
    }
    simulator.schedule_after(kRevealTimeout, finalize);
  };

  // Phase 1: every member sends COMMIT to the leader.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t member = i;
    network.send(members[i], leader, [state, member, close_commits, n] {
      if (state->committed[member]) return;
      state->committed[member] = true;
      if (++state->commit_count == n) close_commits();
    });
  }
  // Leader's own path when sends drop (failed members): close after a grace
  // period even if some commits never arrive.
  simulator.schedule_after(kRevealTimeout, close_commits);

  simulator.run();
  if (!state->done) finalize();
  return result;
}

}  // namespace mvcom::sharding
