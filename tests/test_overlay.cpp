// Tests for the message-level overlay configuration (Elastico stage 2).

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "sharding/overlay.hpp"
#include "sim/simulator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::net::Network;
using mvcom::sharding::run_overlay_configuration;
using mvcom::sim::Simulator;

struct Fabric {
  explicit Fabric(std::size_t nodes, std::uint64_t seed = 1)
      : network(simulator, Rng(seed),
                std::make_shared<mvcom::net::FixedLatency>(SimTime(1.0)),
                nodes) {}
  Simulator simulator;
  Network network;
};

std::vector<mvcom::net::NodeId> node_range(std::size_t n) {
  std::vector<mvcom::net::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// --- overlay ------------------------------------------------------------------

TEST(OverlayTest, EveryParticipantGetsConfigured) {
  Fabric f(8);
  const auto members = node_range(8);
  std::vector<SimTime> ready(8, SimTime(10.0));
  const auto result = run_overlay_configuration(
      f.simulator, f.network, members, ready, /*directory=*/0, SimTime(0.5));
  EXPECT_FALSE(result.directory_complete.is_infinite());
  for (const SimTime t : result.configured_at) {
    EXPECT_FALSE(t.is_infinite());
    EXPECT_GT(t.seconds(), 10.0);  // after readiness
  }
}

TEST(OverlayTest, DirectoryWaitsForTheLastJoiner) {
  Fabric f(4);
  const auto members = node_range(4);
  std::vector<SimTime> ready{SimTime(0.0), SimTime(0.0), SimTime(0.0),
                             SimTime(100.0)};
  const auto result = run_overlay_configuration(
      f.simulator, f.network, members, ready, 0, SimTime(0.1));
  // Completion strictly after the straggler's JOIN could even be sent.
  EXPECT_GT(result.directory_complete.seconds(), 100.0);
}

TEST(OverlayTest, ProcessingCostScalesLinearlyWithMembership) {
  // Fig. 2(a)'s driver: doubling the identities roughly doubles the
  // directory's sequential verification span.
  auto completion = [](std::size_t n) {
    Fabric f(n, 7);
    std::vector<SimTime> ready(n, SimTime::zero());
    return run_overlay_configuration(f.simulator, f.network, node_range(n),
                                     ready, 0, SimTime(1.0))
        .directory_complete.seconds();
  };
  const double small = completion(10);
  const double large = completion(40);
  EXPECT_GT(large, small + 25.0);  // ≥ 30 extra identities × 1 s, minus slack
}

TEST(OverlayTest, FailedMemberNeverConfigures) {
  Fabric f(5);
  f.network.set_failed(3, true);
  const auto members = node_range(5);
  std::vector<SimTime> ready(5, SimTime::zero());
  const auto result = run_overlay_configuration(
      f.simulator, f.network, members, ready, 0, SimTime(0.1));
  // The directory never hears node 3, so nobody completes.
  EXPECT_TRUE(result.directory_complete.is_infinite());
  EXPECT_TRUE(result.configured_at[3].is_infinite());
}

TEST(OverlayTest, RejectsMismatchedInputs) {
  Fabric f(3);
  EXPECT_THROW(run_overlay_configuration(f.simulator, f.network, node_range(3),
                                         {SimTime(0.0)}, 0, SimTime(0.1)),
               std::invalid_argument);
}

}  // namespace
