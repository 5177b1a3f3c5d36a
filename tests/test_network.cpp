// Tests for the net module — latency models and the message fabric.

#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::net::ExponentialLatency;
using mvcom::net::FixedLatency;
using mvcom::net::LognormalLatency;
using mvcom::net::Network;
using mvcom::net::UniformLatency;
using mvcom::sim::Simulator;

TEST(LatencyModelTest, FixedAlwaysSame) {
  Rng rng(1);
  FixedLatency model(SimTime(2.5));
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(model.sample(rng).seconds(), 2.5);
  }
  EXPECT_DOUBLE_EQ(model.mean().seconds(), 2.5);
}

TEST(LatencyModelTest, UniformStaysInRangeAndMeanMatches) {
  Rng rng(2);
  UniformLatency model(SimTime(1.0), SimTime(3.0));
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double s = model.sample(rng).seconds();
    ASSERT_GE(s, 1.0);
    ASSERT_LT(s, 3.0);
    sum += s;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.02);
  EXPECT_DOUBLE_EQ(model.mean().seconds(), 2.0);
}

TEST(LatencyModelTest, ExponentialMeanMatches) {
  Rng rng(3);
  ExponentialLatency model(SimTime(5.0));
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += model.sample(rng).seconds();
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(LatencyModelTest, LognormalMomentsMatch) {
  Rng rng(4);
  LognormalLatency model(SimTime(2.0), SimTime(1.0));
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double s = model.sample(rng).seconds();
    ASSERT_GT(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.03);
}

class NetworkFixture : public ::testing::Test {
 protected:
  Simulator sim_;
  Network net_{sim_, Rng(99), std::make_shared<FixedLatency>(SimTime(1.0)), 4};
};

TEST_F(NetworkFixture, SendDeliversAfterDelay) {
  bool delivered = false;
  EXPECT_TRUE(net_.send(0, 1, [&] { delivered = true; }));
  EXPECT_FALSE(delivered);
  sim_.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim_.now().seconds(), 1.0);
  EXPECT_EQ(net_.messages_sent(), 1u);
}

TEST_F(NetworkFixture, FailedReceiverDropsMessage) {
  net_.set_failed(1, true);
  bool delivered = false;
  EXPECT_FALSE(net_.send(0, 1, [&] { delivered = true; }));
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.messages_dropped(), 1u);
}

TEST_F(NetworkFixture, FailedSenderDropsMessage) {
  net_.set_failed(0, true);
  EXPECT_FALSE(net_.send(0, 1, [] {}));
  EXPECT_EQ(net_.messages_dropped(), 1u);
}

TEST_F(NetworkFixture, RecoveryRestoresDelivery) {
  net_.set_failed(1, true);
  EXPECT_FALSE(net_.send(0, 1, [] {}));
  net_.set_failed(1, false);
  EXPECT_TRUE(net_.send(0, 1, [] {}));
}

TEST_F(NetworkFixture, NodeFactorScalesDelay) {
  net_.set_delay_factor(2, 4.0);
  // Both endpoints scale: 1.0s base * 1.0 (node 0) * 4.0 (node 2).
  EXPECT_DOUBLE_EQ(net_.sample_delay(0, 2).seconds(), 4.0);
  EXPECT_DOUBLE_EQ(net_.sample_delay(2, 0).seconds(), 4.0);
  EXPECT_DOUBLE_EQ(net_.sample_delay(0, 1).seconds(), 1.0);
}

TEST_F(NetworkFixture, PingRttIsFiniteForLiveAndInfiniteForFailed) {
  EXPECT_DOUBLE_EQ(net_.ping_rtt(0, 1).seconds(), 2.0);
  net_.set_failed(3, true);
  // §V-A: "a failed member committee ... its connection latency can be
  // tested as infinity."
  EXPECT_TRUE(net_.ping_rtt(0, 3).is_infinite());
}

TEST_F(NetworkFixture, MessageLossDropsApproximatelyTheConfiguredFraction) {
  net_.set_loss_probability(0.25);
  int delivered = 0;
  for (int i = 0; i < 4000; ++i) {
    if (net_.send(0, 1, [] {})) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / 4000.0, 0.75, 0.03);
  EXPECT_EQ(net_.messages_sent() + net_.messages_dropped(), 4000u);
}

TEST_F(NetworkFixture, LossProbabilityValidation) {
  EXPECT_THROW(net_.set_loss_probability(-0.1), std::invalid_argument);
  EXPECT_THROW(net_.set_loss_probability(1.0), std::invalid_argument);
  net_.set_loss_probability(0.0);  // reliable again
  EXPECT_TRUE(net_.send(0, 1, [] {}));
}

TEST(NetworkTest, NullModelRejected) {
  Simulator sim;
  EXPECT_THROW(Network(sim, Rng(1), nullptr, 2), std::invalid_argument);
}

TEST(NetworkTest, OutOfRangeNodeThrows) {
  Simulator sim;
  Network net(sim, Rng(1), std::make_shared<FixedLatency>(SimTime(1.0)), 2);
  EXPECT_THROW(net.set_failed(5, true), std::out_of_range);
  EXPECT_THROW(net.set_delay_factor(2, 1.0), std::out_of_range);
}

}  // namespace
