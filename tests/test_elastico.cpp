// Tests for the Elastico sharding substrate: epoch pipeline, two-phase
// latency structure, scheduler hook, and multi-epoch randomness refresh.

#include "sharding/elastico.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::sharding::CommitteeOutcome;
using mvcom::sharding::ElasticoConfig;
using mvcom::sharding::ElasticoNetwork;
using mvcom::sharding::EpochOutcome;
using mvcom::sharding::same_epoch;
using mvcom::txn::generate_trace;
using mvcom::txn::Trace;
using mvcom::txn::TraceGeneratorConfig;

Trace small_trace() {
  Rng rng(1);
  TraceGeneratorConfig tc;
  tc.num_blocks = 128;
  tc.target_total_txs = 128'000;
  return generate_trace(tc, rng);
}

ElasticoConfig small_config() {
  ElasticoConfig config;
  config.num_nodes = 96;
  config.committee_size = 6;
  config.committee_bits = 3;  // 8 committees: 7 member + 1 final
  config.pow_expected_solve = SimTime(600.0);
  config.link_latency_mean = SimTime(1.0);
  config.pbft.verification_mean = SimTime(0.2);
  config.pbft.view_change_timeout = SimTime(120.0);
  return config;
}

TEST(ElasticoTest, EpochProducesCommittedCommittees) {
  ElasticoNetwork network(small_config(), Rng(42));
  const EpochOutcome outcome = network.run_epoch(small_trace());
  EXPECT_EQ(outcome.committees.size(), network.num_member_committees());
  std::size_t committed = 0;
  for (const CommitteeOutcome& c : outcome.committees) {
    if (!c.committed) continue;
    ++committed;
    EXPECT_GT(c.formation_latency.seconds(), 0.0);
    EXPECT_GT(c.consensus_latency.seconds(), 0.0);
    EXPECT_GT(c.tx_count, 0u);
    EXPECT_DOUBLE_EQ(c.two_phase_latency().seconds(),
                     c.formation_latency.seconds() +
                         c.consensus_latency.seconds());
  }
  EXPECT_GE(committed, network.num_member_committees() / 2);
}

TEST(ElasticoTest, FinalConsensusWaitsForSlowestSelectedShard) {
  ElasticoNetwork network(small_config(), Rng(43));
  const EpochOutcome outcome = network.run_epoch(small_trace());
  if (!outcome.final_committed) GTEST_SKIP() << "final committee too small";
  double slowest = 0.0;
  for (const std::uint32_t id : outcome.selected) {
    slowest = std::max(slowest,
                       outcome.committees[id].two_phase_latency().seconds());
  }
  EXPECT_GE(outcome.epoch_makespan.seconds(),
            slowest + outcome.final_consensus_latency.seconds() - 1e-9);
}

TEST(ElasticoTest, SchedulerHookControlsSelection) {
  ElasticoNetwork network(small_config(), Rng(44));
  // Select only the two fastest committed committees.
  const EpochOutcome outcome = network.run_epoch(
      small_trace(), [](const std::vector<CommitteeOutcome>& committed) {
        std::vector<CommitteeOutcome> sorted = committed;
        std::sort(sorted.begin(), sorted.end(),
                  [](const CommitteeOutcome& a, const CommitteeOutcome& b) {
                    return a.two_phase_latency() < b.two_phase_latency();
                  });
        std::vector<std::uint32_t> ids;
        for (std::size_t i = 0; i < std::min<std::size_t>(2, sorted.size());
             ++i) {
          ids.push_back(sorted[i].committee_id);
        }
        return ids;
      });
  EXPECT_LE(outcome.selected.size(), 2u);
  std::uint64_t expected_txs = 0;
  for (const std::uint32_t id : outcome.selected) {
    expected_txs += outcome.committees[id].tx_count;
  }
  EXPECT_EQ(outcome.final_block_txs, expected_txs);
}

TEST(ElasticoTest, SchedulingFastShardsShortensEpochMakespan) {
  // The paper's whole point: excluding stragglers accelerates the final
  // block. Same seed, two policies.
  const Trace trace = small_trace();
  ElasticoNetwork wait_all(small_config(), Rng(45));
  const EpochOutcome slow = wait_all.run_epoch(trace);

  ElasticoNetwork pick_fast(small_config(), Rng(45));
  const EpochOutcome fast = pick_fast.run_epoch(
      trace, [](const std::vector<CommitteeOutcome>& committed) {
        // Keep committees at most 20% slower than the fastest half's median.
        std::vector<CommitteeOutcome> sorted = committed;
        std::sort(sorted.begin(), sorted.end(),
                  [](const CommitteeOutcome& a, const CommitteeOutcome& b) {
                    return a.two_phase_latency() < b.two_phase_latency();
                  });
        std::vector<std::uint32_t> ids;
        for (std::size_t i = 0; i < (sorted.size() + 1) / 2; ++i) {
          ids.push_back(sorted[i].committee_id);
        }
        return ids;
      });
  if (!slow.final_committed || !fast.final_committed) {
    GTEST_SKIP() << "final committee under-populated for this seed";
  }
  EXPECT_LT(fast.epoch_makespan.seconds(), slow.epoch_makespan.seconds());
  EXPECT_LE(fast.final_block_txs, slow.final_block_txs);
}

TEST(ElasticoTest, ReportsBridgeToWorkloadSchema) {
  ElasticoNetwork network(small_config(), Rng(46));
  const EpochOutcome outcome = network.run_epoch(small_trace());
  const auto reports = outcome.reports();
  std::size_t committed = 0;
  for (const CommitteeOutcome& c : outcome.committees) {
    committed += c.committed ? 1 : 0;
  }
  EXPECT_EQ(reports.size(), committed);
  for (const auto& r : reports) {
    EXPECT_NEAR(r.two_phase_latency(),
                outcome.committees[r.committee_id].two_phase_latency().seconds(),
                1e-9);
    EXPECT_EQ(r.tx_count, outcome.committees[r.committee_id].tx_count);
  }
}

TEST(ElasticoTest, EpochRandomnessRefreshes) {
  ElasticoNetwork network(small_config(), Rng(47));
  const std::string r0 = network.epoch_randomness();
  network.run_epoch(small_trace());
  const std::string r1 = network.epoch_randomness();
  network.run_epoch(small_trace());
  const std::string r2 = network.epoch_randomness();
  EXPECT_NE(r0, r1);
  EXPECT_NE(r1, r2);
  EXPECT_EQ(r1.size(), 64u);
}

TEST(ElasticoTest, DeterministicGivenSeed) {
  const Trace trace = small_trace();
  ElasticoNetwork a(small_config(), Rng(48));
  ElasticoNetwork b(small_config(), Rng(48));
  const EpochOutcome oa = a.run_epoch(trace);
  const EpochOutcome ob = b.run_epoch(trace);
  ASSERT_EQ(oa.committees.size(), ob.committees.size());
  for (std::size_t i = 0; i < oa.committees.size(); ++i) {
    EXPECT_EQ(oa.committees[i].committed, ob.committees[i].committed);
    EXPECT_DOUBLE_EQ(oa.committees[i].two_phase_latency().seconds(),
                     ob.committees[i].two_phase_latency().seconds());
    EXPECT_EQ(oa.committees[i].tx_count, ob.committees[i].tx_count);
  }
}

TEST(ElasticoTest, SameEpochChecksEveryWitnessField) {
  // same_epoch compares five witness fields bitwise: changing any one of
  // them alone must make two otherwise equal epochs differ.
  ElasticoNetwork network(small_config(), Rng(42));
  const EpochOutcome base = network.run_epoch(small_trace());
  ASSERT_TRUE(base.final_committed);
  EXPECT_TRUE(same_epoch(base, base));
  const std::vector<std::function<void(EpochOutcome&)>> flips = {
      [](EpochOutcome& o) { o.event_order_digest ^= 1; },
      [](EpochOutcome& o) { o.events_executed += 1; },
      [](EpochOutcome& o) { o.final_block_txs += 1; },
      [](EpochOutcome& o) { o.next_epoch_randomness.back() ^= 1; },
      [](EpochOutcome& o) {
        // The next double up: equal within any tolerance, not bitwise.
        const double t = o.epoch_makespan.seconds();
        o.epoch_makespan = SimTime(std::nextafter(t, 2 * t));
      },
  };
  for (std::size_t f = 0; f < flips.size(); ++f) {
    EpochOutcome flipped = base;
    flips[f](flipped);
    EXPECT_FALSE(same_epoch(base, flipped)) << "field " << f;
    EXPECT_FALSE(same_epoch(flipped, base)) << "field " << f;
  }
}

TEST(ElasticoTest, FormationLatencyGrowsWithNetworkSize) {
  // Fig. 2(a): formation latency increases (linearly) with network size,
  // driven by the overlay identity exchange.
  // As in Elastico, the committee count scales with the network (so the
  // per-committee PoW order statistic stays put) and the linear overlay
  // identity exchange dominates growth.
  const Trace trace = small_trace();
  auto mean_formation = [&](std::size_t nodes, int bits, std::uint64_t seed) {
    ElasticoConfig config = small_config();
    config.num_nodes = nodes;
    config.committee_bits = bits;
    config.overlay_cost_per_node = SimTime(0.5);
    ElasticoNetwork network(config, Rng(seed));
    const EpochOutcome outcome = network.run_epoch(trace);
    double sum = 0.0;
    std::size_t count = 0;
    for (const CommitteeOutcome& c : outcome.committees) {
      if (!c.committed) continue;
      sum += c.formation_latency.seconds();
      ++count;
    }
    return count ? sum / static_cast<double>(count) : 0.0;
  };
  double small_sum = 0.0;
  double large_sum = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    small_sum += mean_formation(96, 3, 100 + seed);    // ~12 per committee
    large_sum += mean_formation(384, 5, 200 + seed);   // ~12 per committee
  }
  EXPECT_GT(large_sum, small_sum);
}

TEST(ElasticoTest, MessageLevelOverlayProducesCommittedEpochs) {
  ElasticoConfig config = small_config();
  config.message_level_overlay = true;
  ElasticoNetwork network(config, Rng(52));
  const EpochOutcome outcome = network.run_epoch(small_trace());
  std::size_t committed = 0;
  for (const CommitteeOutcome& c : outcome.committees) {
    if (c.committed) {
      ++committed;
      // Formation includes the JOIN exchange and the directory's linear
      // identity scan — it must exceed the bare PoW order statistic.
      EXPECT_GT(c.formation_latency.seconds(),
                static_cast<double>(config.num_nodes) *
                    config.overlay_identity_processing.seconds());
    }
  }
  EXPECT_GE(committed, network.num_member_committees() / 2);
}

TEST(ElasticoTest, RootChainGrowsAndValidatesAcrossEpochs) {
  ElasticoNetwork network(small_config(), Rng(49));
  const Trace trace = small_trace();
  std::uint64_t committed_epochs = 0;
  for (int e = 0; e < 3; ++e) {
    const EpochOutcome outcome = network.run_epoch(trace);
    if (outcome.final_committed) ++committed_epochs;
  }
  EXPECT_EQ(network.root_chain().height(), committed_epochs);
  EXPECT_TRUE(network.root_chain().validate_full());
  // Each non-genesis block carries the selected shard roots and TX totals.
  for (std::uint64_t h = 1; h <= network.root_chain().height(); ++h) {
    const auto& block = network.root_chain().at(h);
    EXPECT_FALSE(block.shard_roots.empty());
    EXPECT_GT(block.header.tx_count, 0u);
    EXPECT_TRUE(block.merkle_consistent());
  }
}

TEST(ElasticoTest, NodeFailuresDegradeButDoNotBreakTheEpoch) {
  const Trace trace = small_trace();
  auto committed_count = [&](double failure_probability, std::uint64_t seed) {
    ElasticoConfig config = small_config();
    config.node_failure_probability = failure_probability;
    config.pbft.horizon = SimTime(1200.0);  // bound dead committees' wait
    ElasticoNetwork network(config, Rng(seed));
    const EpochOutcome outcome = network.run_epoch(trace);
    std::size_t committed = 0;
    for (const CommitteeOutcome& c : outcome.committees) {
      committed += c.committed ? 1 : 0;
    }
    return committed;
  };
  std::size_t healthy = 0;
  std::size_t degraded = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    healthy += committed_count(0.0, 60 + seed);
    degraded += committed_count(0.4, 60 + seed);
  }
  EXPECT_GT(healthy, degraded);  // failures cost committees...
  EXPECT_GT(degraded, 0u);       // ...but never wedge the pipeline
}

TEST(ElasticoTest, MessageLossDegradesButDoesNotBreakTheEpoch) {
  ElasticoConfig config = small_config();
  config.message_loss_probability = 0.10;
  config.pbft.horizon = SimTime(1200.0);
  ElasticoNetwork network(config, Rng(71));
  const EpochOutcome outcome = network.run_epoch(small_trace());
  std::size_t committed = 0;
  for (const CommitteeOutcome& c : outcome.committees) {
    committed += c.committed ? 1 : 0;
  }
  EXPECT_GT(committed, 0u);
}

TEST(ElasticoTest, RejectsInvalidConfigs) {
  ElasticoConfig bad_bits = small_config();
  bad_bits.committee_bits = 0;
  EXPECT_THROW(ElasticoNetwork(bad_bits, Rng(1)), std::invalid_argument);

  ElasticoConfig tiny_committee = small_config();
  tiny_committee.committee_size = 3;
  EXPECT_THROW(ElasticoNetwork(tiny_committee, Rng(1)), std::invalid_argument);

  ElasticoConfig too_few_nodes = small_config();
  too_few_nodes.num_nodes = 10;
  EXPECT_THROW(ElasticoNetwork(too_few_nodes, Rng(1)), std::invalid_argument);

  for (const double p : {-0.1, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    ElasticoConfig bad_failure = small_config();
    bad_failure.node_failure_probability = p;
    EXPECT_THROW(ElasticoNetwork(bad_failure, Rng(1)), std::invalid_argument)
        << "failure probability " << p;
    ElasticoConfig bad_loss = small_config();
    bad_loss.message_loss_probability = p;
    EXPECT_THROW(ElasticoNetwork(bad_loss, Rng(1)), std::invalid_argument)
        << "loss probability " << p;
  }
}

}  // namespace
