// Tests for the message-level PBFT simulation: liveness with network-failed
// replicas (within f and beyond it), view changes on leader failure,
// partitions, message loss and the message-complexity bound. Rounds run the
// way Elastico lanes run them: start_consensus, then drain the simulator.

#include "consensus/pbft.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::consensus::PbftCluster;
using mvcom::consensus::PbftConfig;
using mvcom::consensus::PbftResult;
using mvcom::crypto::Digest;
using mvcom::crypto::Sha256;
using mvcom::net::Network;
using mvcom::sim::Simulator;

struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1)
      : network(simulator, Rng(seed),
                std::make_shared<mvcom::net::UniformLatency>(SimTime(0.5),
                                                             SimTime(1.5)),
                n) {
    std::vector<mvcom::net::NodeId> members(n);
    std::iota(members.begin(), members.end(), 0u);
    PbftConfig config;
    config.view_change_timeout = SimTime(60.0);
    config.verification_mean = SimTime(0.2);
    cluster = std::make_unique<PbftCluster>(simulator, network, config,
                                            Rng(seed + 1), members);
  }

  /// Replica r runs on node r; a failed node neither sends nor receives.
  void fail(mvcom::net::NodeId r) { network.set_failed(r, true); }

  /// One round: start it, drain the simulator, return the decision.
  PbftResult run(const Digest& payload) {
    std::size_t decisions = 0;
    PbftResult out;
    cluster->start_consensus(payload, [&](const PbftResult& r) {
      ++decisions;
      out = r;
    });
    simulator.run();
    EXPECT_EQ(decisions, 1u);
    return out;
  }

  Simulator simulator;
  Network network;
  std::unique_ptr<PbftCluster> cluster;
};

const Digest kPayload = Sha256::hash("shard-block");

TEST(PbftTest, AllHonestCommitsQuickly) {
  Fixture fx(4);
  const PbftResult result = fx.run(kPayload);
  EXPECT_TRUE(result.committed);
  EXPECT_GT(result.latency.seconds(), 0.0);
  EXPECT_LT(result.latency.seconds(), 60.0);  // no view change needed
  EXPECT_EQ(result.view_changes, 0u);
}

TEST(PbftTest, ToleratesSilentFollowers) {
  Fixture fx(7);  // f = 2
  fx.fail(3);
  fx.fail(5);
  const PbftResult result = fx.run(kPayload);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.view_changes, 0u);
}

TEST(PbftTest, SilentLeaderTriggersViewChangeThenCommits) {
  Fixture fx(4);
  fx.fail(0);  // view-0 leader crashed
  const PbftResult result = fx.run(kPayload);
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.view_changes, 1u);
  EXPECT_GT(result.latency.seconds(), 60.0);  // paid at least one timeout
}

TEST(PbftTest, TooManyCrashesPreventCommit) {
  Fixture fx(4);  // f = 1, so 2 crashes break the quorum
  fx.fail(1);
  fx.fail(2);
  const PbftResult result = fx.run(kPayload);
  EXPECT_FALSE(result.committed);
}

TEST(PbftTest, ConsecutiveInstancesOnSameCluster) {
  Fixture fx(4);
  const PbftResult first = fx.run(kPayload);
  ASSERT_TRUE(first.committed);
  const PbftResult second = fx.run(Sha256::hash("next-shard"));
  EXPECT_TRUE(second.committed);
  EXPECT_EQ(second.view_changes, 0u);
}

TEST(PbftTest, SlowerVerificationIncreasesLatency) {
  Fixture fast(4, 7);
  Fixture slow(4, 7);
  for (std::size_t r = 0; r < 4; ++r) slow.cluster->set_speed_factor(r, 10.0);
  const double fast_latency = fast.run(kPayload).latency.seconds();
  const double slow_latency = slow.run(kPayload).latency.seconds();
  EXPECT_GT(slow_latency, fast_latency);
}

// PBFT messages ride Network::send, so a traced round shows every delivery
// as the network's in-flight span. With no loss or failure each accepted
// message is delivered once the simulator drains.
TEST(PbftTest, TracedRoundRecordsOneDeliverSpanPerMessage) {
  Fixture fx(4);
  mvcom::obs::TraceRecorder recorder;
  fx.network.set_obs(mvcom::obs::ObsContext(nullptr, &recorder));
  ASSERT_TRUE(fx.run(kPayload).committed);
  ASSERT_GT(fx.network.messages_sent(), 0u);
  EXPECT_EQ(fx.network.messages_dropped(), 0u);

  std::uint64_t deliver_spans = 0;
  for (const mvcom::obs::TraceEvent& e : recorder.snapshot()) {
    if (e.phase == 'X' && std::string_view(e.name) == "net/deliver") {
      ++deliver_spans;
    }
  }
  EXPECT_EQ(deliver_spans, fx.network.messages_sent());
}

TEST(PbftTest, RejectsMembersOutsideNetwork) {
  Simulator sim;
  Network net(sim, Rng(1),
              std::make_shared<mvcom::net::FixedLatency>(SimTime(1.0)), 2);
  EXPECT_THROW(PbftCluster(sim, net, PbftConfig{}, Rng(2), {0, 1, 5}),
               std::invalid_argument);
  EXPECT_THROW(PbftCluster(sim, net, PbftConfig{}, Rng(2), {}),
               std::invalid_argument);
}

TEST(PbftAdversarialTest, NetworkPartitionBlocksProgressUntilHealed) {
  Fixture fx(7);
  // Partition: 3 of 7 nodes unreachable (> f = 2): no quorum.
  for (mvcom::net::NodeId node : {4u, 5u, 6u}) fx.fail(node);
  bool decided = false;
  PbftResult outcome;
  fx.cluster->start_consensus(kPayload, [&](const PbftResult& r) {
    decided = true;
    outcome = r;
  });
  // Let the partition last a while: no decision possible.
  fx.simulator.run_until(SimTime(500.0));
  EXPECT_FALSE(decided);
  // Heal the partition; the periodic view-change retries re-broadcast and
  // the instance eventually commits.
  for (mvcom::net::NodeId node : {4u, 5u, 6u}) {
    fx.network.set_failed(node, false);
  }
  fx.simulator.run();
  ASSERT_TRUE(decided);
  EXPECT_TRUE(outcome.committed);
}

TEST(PbftAdversarialTest, TwoConsecutiveSilentLeadersStillCommit) {
  Fixture fx(7);  // f = 2: leaders of views 0 and 1 may both be faulty
  fx.fail(0);
  fx.fail(1);
  const PbftResult result = fx.run(kPayload);
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.view_changes, 1u);
  // Two timeouts were paid before a live leader took over.
  EXPECT_GT(result.latency.seconds(), 2 * 60.0);
}

TEST(PbftAdversarialTest, MessageComplexityIsQuadraticNotWorse) {
  // Happy path: pre-prepare (n−1) + prepare/commit broadcasts ≈ 2n² sends.
  for (const std::size_t n : {4u, 7u, 13u}) {
    Fixture fx(n, 5);
    const PbftResult result = fx.run(kPayload);
    ASSERT_TRUE(result.committed);
    const auto bound = static_cast<std::uint64_t>(3 * n * n);
    EXPECT_LE(result.messages, bound) << "n=" << n;
    EXPECT_GE(result.messages, static_cast<std::uint64_t>(n));
  }
}

TEST(PbftAdversarialTest, HorizonAbortsReportNoCommit) {
  Fixture fx(4);
  // All followers crashed: nothing can ever commit; the horizon fires.
  fx.fail(1);
  fx.fail(2);
  fx.fail(3);
  const PbftResult result = fx.run(kPayload);
  EXPECT_FALSE(result.committed);
  EXPECT_EQ(result.latency.seconds(), 0.0);
  EXPECT_GE(fx.simulator.now().seconds(), PbftConfig{}.horizon.seconds());
}

TEST(PbftAdversarialTest, SurvivesModerateMessageLoss) {
  // 5% independent loss: broadcast redundancy plus view-change retries keep
  // the protocol live.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture fx(7, seed * 13);
    fx.network.set_loss_probability(0.05);
    EXPECT_TRUE(fx.run(kPayload).committed) << "seed " << seed;
  }
}

TEST(PbftAdversarialTest, HeavyMessageLossSlowsButDoesNotForkDecisions) {
  // Liveness may be gone at 30% loss; the round still decides exactly once
  // (Fixture::run counts the decisions), by the horizon at the latest.
  Fixture fx(7, 3);
  fx.network.set_loss_probability(0.30);
  (void)fx.run(kPayload);
  EXPECT_GT(fx.network.messages_dropped(), 0u);
}

// Sweep: liveness with exactly f failed replicas for several cluster sizes.
class PbftFaultSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PbftFaultSweep, CommitsWithMaxTolerableSilentFaults) {
  const std::size_t n = GetParam();
  Fixture fx(n, 3);
  const std::size_t f = (n - 1) / 3;
  // Crash the last f replicas (never the view-0 leader, to isolate the
  // crash-tolerance property from view-change liveness).
  for (std::size_t k = 0; k < f; ++k) {
    fx.fail(static_cast<mvcom::net::NodeId>(n - 1 - k));
  }
  const PbftResult result = fx.run(kPayload);
  EXPECT_TRUE(result.committed) << "n=" << n << " f=" << f;
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, PbftFaultSweep,
                         ::testing::Values(4, 7, 10, 13, 16));

}  // namespace
