// Determinism matrix for the lane-parallel Elastico epoch (DESIGN.md §12).
//
// The contract under test: the pool an ElasticoNetwork borrows for its
// committee lanes changes only the wall-clock shape of stage 2/3 — never
// any result. Every lane draws from an RNG substream forked in committee
// order before any lane runs, and lane outcomes merge back in committee
// order, so inline runs (no pool) and runs on a lent pool of any size are
// bitwise-identical: the same per-committee formation/consensus latencies
// (compared as doubles, i.e. bit-exact), the same commit flags and
// view-change counts, the same final block, and the same DES event-order
// digest. The matrix covers four scenario classes (baseline, faulty,
// message-level overlay, churn) on lent pools of {1, 2, 8} workers, and
// one test nests two networks' lane batches in one batch of the pool both
// borrow.
//
// Comparing worker counts within one build cannot catch a change that moves
// an event in all of them, so each scenario's SHA-256 outcome digest (every
// epoch field plus the simulator's event-order digest) is also pinned to a
// constant, one SimKernelsDifferential test per scenario: the DES event
// stream itself is fixed across commits. A change that moves one must say
// why and re-pin it.
// ElasticoLaneMatrix.AttachedObservabilityNeverChangesResults checks that
// attached sinks leave every lane's outcome bitwise intact.

#include "sharding/elastico.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::common::ThreadPool;
using mvcom::sharding::CommitteeOutcome;
using mvcom::sharding::ElasticoConfig;
using mvcom::sharding::ElasticoNetwork;
using mvcom::sharding::EpochOutcome;
using mvcom::txn::generate_trace;
using mvcom::txn::Trace;
using mvcom::txn::TraceGeneratorConfig;

Trace lane_trace() {
  Rng rng(7);
  TraceGeneratorConfig tc;
  tc.num_blocks = 96;
  tc.target_total_txs = 96'000;
  return generate_trace(tc, rng);
}

ElasticoConfig lane_config() {
  ElasticoConfig config;
  config.num_nodes = 128;
  config.committee_size = 6;
  config.committee_bits = 3;  // 8 committees: 7 member + 1 final
  config.pow_expected_solve = SimTime(600.0);
  config.link_latency_mean = SimTime(1.0);
  config.pbft.verification_mean = SimTime(0.2);
  config.pbft.view_change_timeout = SimTime(120.0);
  return config;
}

/// Runs `epochs` consecutive epochs from one seed with lanes on `pool`
/// (null: inline) and returns every outcome (epoch chaining exercises the
/// randomness refresh under lanes too).
std::vector<EpochOutcome> run_epochs(const ElasticoConfig& config,
                                     ThreadPool* pool, std::size_t epochs,
                                     const Trace& trace) {
  ElasticoNetwork network(config, Rng(4242), pool);
  std::vector<EpochOutcome> out;
  out.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    out.push_back(network.run_epoch(trace));
  }
  return out;
}

/// Bit-exact comparison — EXPECT_EQ on doubles is exact equality, which is
/// precisely the contract (not EXPECT_NEAR).
void expect_identical(const EpochOutcome& a, const EpochOutcome& b) {
  ASSERT_EQ(a.committees.size(), b.committees.size());
  for (std::size_t c = 0; c < a.committees.size(); ++c) {
    SCOPED_TRACE("committee " + std::to_string(c));
    const CommitteeOutcome& ca = a.committees[c];
    const CommitteeOutcome& cb = b.committees[c];
    EXPECT_EQ(ca.committee_id, cb.committee_id);
    EXPECT_EQ(ca.member_count, cb.member_count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.formation_latency.seconds()),
              std::bit_cast<std::uint64_t>(cb.formation_latency.seconds()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.consensus_latency.seconds()),
              std::bit_cast<std::uint64_t>(cb.consensus_latency.seconds()));
    EXPECT_EQ(ca.committed, cb.committed);
    EXPECT_EQ(ca.view_changes, cb.view_changes);
    EXPECT_EQ(ca.tx_count, cb.tx_count);
  }
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.final_committed, b.final_committed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_consensus_latency.seconds()),
            std::bit_cast<std::uint64_t>(b.final_consensus_latency.seconds()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.epoch_makespan.seconds()),
            std::bit_cast<std::uint64_t>(b.epoch_makespan.seconds()));
  EXPECT_EQ(a.final_block_txs, b.final_block_txs);
  EXPECT_EQ(a.next_epoch_randomness, b.next_epoch_randomness);
  EXPECT_EQ(a.event_order_digest, b.event_order_digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

std::string outcome_digest(const std::vector<EpochOutcome>& epochs) {
  mvcom::crypto::Sha256 h;
  const auto absorb_u64 = [&h](std::uint64_t v) {
    h.update(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  };
  const auto absorb_time = [&](SimTime t) {
    absorb_u64(std::bit_cast<std::uint64_t>(t.seconds()));
  };
  for (const EpochOutcome& o : epochs) {
    for (const CommitteeOutcome& c : o.committees) {
      absorb_u64(c.committee_id);
      absorb_u64(c.member_count);
      absorb_time(c.formation_latency);
      absorb_time(c.consensus_latency);
      absorb_u64(c.committed ? 1 : 0);
      absorb_u64(c.view_changes);
      absorb_u64(c.tx_count);
    }
    for (const std::uint32_t id : o.selected) absorb_u64(id);
    absorb_u64(o.final_committed ? 1 : 0);
    absorb_time(o.final_consensus_latency);
    absorb_time(o.epoch_makespan);
    absorb_u64(o.final_block_txs);
    h.update(o.next_epoch_randomness);
    absorb_u64(o.event_order_digest);
    absorb_u64(o.events_executed);
  }
  return mvcom::crypto::to_hex(h.finalize());
}

constexpr std::size_t kEpochs = 2;

/// One DES scenario class of the matrix, with the SHA-256 outcome digest of
/// its serial run.
struct Scenario {
  std::string label;
  ElasticoConfig config;
  std::string_view pinned_digest;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  // Healthy network, closed-form overlay.
  out.push_back(
      {"baseline", lane_config(),
       "c8426152803d4375fcfdfc0b99aebc46bad66a71b99136ee4f25d26cba18db73"});
  // Failures + message loss: the lossy code paths (drops, view changes,
  // horizon timeouts) must be just as order-independent.
  {
    ElasticoConfig config = lane_config();
    config.node_failure_probability = 0.10;
    config.message_loss_probability = 0.02;
    out.push_back(
        {"faulty", config,
         "c94edd9e4eaf632c2703a10bec5f27d1d35de08b709354cd0bf57ec8736a42df"});
  }
  // Message-level overlay: stage 2 runs the real directory exchange on its
  // own per-lane fabric (a second simulator per lane).
  {
    ElasticoConfig config = lane_config();
    config.message_level_overlay = true;
    out.push_back(
        {"message_overlay", config,
         "94df7f27ec1655942cb127907efe11a7cb15a8c04870a77292c162e91da53f15"});
  }
  // Heavy churn: a third of the nodes down and lossy links every epoch —
  // drops, view changes, and horizon aborts dominate the event stream.
  {
    ElasticoConfig config = lane_config();
    config.node_failure_probability = 0.33;
    config.message_loss_probability = 0.10;
    config.pbft.view_change_timeout = SimTime(30.0);
    out.push_back(
        {"churn", config,
         "6b0caa3e25e89ed62cd5e541ecd023ea3e4efb9474088d1244e4dfe5aaddd8e9"});
  }
  return out;
}

/// Runs one scenario serially and checks its outcome digest against the
/// pinned constant. The constants predate the DES's move to one event kind
/// (every PBFT message and phase event a plain callback), so these tests
/// guard that DES against the event stream of every earlier executor;
/// WorkerCountsAndSerialAgreeBitwise extends the result to lent pools of
/// every size.
void expect_pinned(std::string_view label) {
  for (const Scenario& s : scenarios()) {
    if (s.label != label) continue;
    const std::vector<EpochOutcome> serial =
        run_epochs(s.config, nullptr, kEpochs, lane_trace());
    // An epoch must actually do work for the digest to mean anything.
    std::size_t committed = 0;
    for (const CommitteeOutcome& c : serial.front().committees) {
      if (c.committed) ++committed;
    }
    EXPECT_GT(committed, 0u) << "degenerate epoch: nothing committed";
    EXPECT_GT(serial.front().events_executed, 0u);
    EXPECT_EQ(outcome_digest(serial), s.pinned_digest);
    return;
  }
  ADD_FAILURE() << "no scenario labelled " << label;
}

TEST(SimKernelsDifferential, BaselineScenario) { expect_pinned("baseline"); }

TEST(SimKernelsDifferential, FaultyScenario) { expect_pinned("faulty"); }

TEST(SimKernelsDifferential, MessageOverlayScenario) {
  expect_pinned("message_overlay");
}

TEST(SimKernelsDifferential, ChurnScenario) { expect_pinned("churn"); }

TEST(ElasticoLaneMatrix, WorkerCountsAndSerialAgreeBitwise) {
  const Trace trace = lane_trace();
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.label);
    const std::vector<EpochOutcome> serial =
        run_epochs(s.config, nullptr, kEpochs, trace);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pool workers=" + std::to_string(workers));
      ThreadPool pool(workers);
      const std::vector<EpochOutcome> pooled =
          run_epochs(s.config, &pool, kEpochs, trace);
      ASSERT_EQ(serial.size(), pooled.size());
      for (std::size_t e = 0; e < serial.size(); ++e) {
        SCOPED_TRACE("epoch " + std::to_string(e));
        expect_identical(serial[e], pooled[e]);
      }
    }
  }
}

TEST(ElasticoLaneMatrix, LanedEpochMatchesStructuralExpectations) {
  // Sanity independent of the serial reference: a pooled run on its own
  // still produces a committed final block and a populated digest.
  ThreadPool pool(4);
  ElasticoNetwork network(lane_config(), Rng(99), &pool);
  const EpochOutcome outcome = network.run_epoch(lane_trace());
  EXPECT_FALSE(outcome.selected.empty());
  EXPECT_TRUE(outcome.final_committed);
  EXPECT_GT(outcome.epoch_makespan, SimTime::zero());
  EXPECT_NE(outcome.event_order_digest, 0u);
  EXPECT_GT(outcome.events_executed, 0u);
}

TEST(ElasticoLaneMatrix, AttachedObservabilityNeverChangesResults) {
  // Live metrics + trace sinks shared by 8 concurrent lanes: counter
  // updates and the trace-ring append are thread-safe, and — the contract —
  // attaching them must not perturb a single scheduled event. Run under
  // TSan via tools/run_tsan_tests.sh, this is also the race check for
  // cross-lane obs emission.
  const ElasticoConfig config = lane_config();
  const Trace trace = lane_trace();
  ThreadPool pool(8);
  const std::vector<EpochOutcome> plain = run_epochs(config, &pool, 2, trace);

  mvcom::obs::MetricsRegistry registry;
  mvcom::obs::TraceRecorder recorder;
  ElasticoNetwork network(config, Rng(4242), &pool);
  network.set_obs(mvcom::obs::ObsContext(&registry, &recorder));
  std::vector<EpochOutcome> attached;
  attached.push_back(network.run_epoch(trace));
  attached.push_back(network.run_epoch(trace));

  for (std::size_t e = 0; e < plain.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    expect_identical(plain[e], attached[e]);
  }
}

TEST(ElasticoLaneMatrix, NestedLaneBatchesOnOneLentPoolMatchSerial) {
  // Two networks borrow one pool, and their run_epoch calls run as the two
  // tasks of one parallel_for on it: each epoch's lane batch nests inside
  // that batch. Each network must still match its own serial run.
  const Trace trace = lane_trace();
  const std::vector<Scenario> all = scenarios();
  const Scenario& first = all.front();  // baseline
  const Scenario& second = all.back();  // churn
  const std::vector<EpochOutcome> first_serial =
      run_epochs(first.config, nullptr, kEpochs, trace);
  const std::vector<EpochOutcome> second_serial =
      run_epochs(second.config, nullptr, kEpochs, trace);

  ThreadPool pool(2);
  ElasticoNetwork first_network(first.config, Rng(4242), &pool);
  ElasticoNetwork second_network(second.config, Rng(4242), &pool);
  std::vector<EpochOutcome> first_nested;
  std::vector<EpochOutcome> second_nested;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    pool.parallel_for(2, [&](std::size_t which) {
      if (which == 0) {
        first_nested.push_back(first_network.run_epoch(trace));
      } else {
        second_nested.push_back(second_network.run_epoch(trace));
      }
    });
  }

  ASSERT_EQ(first_nested.size(), kEpochs);
  ASSERT_EQ(second_nested.size(), kEpochs);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    expect_identical(first_serial[e], first_nested[e]);
    expect_identical(second_serial[e], second_nested[e]);
  }
}

}  // namespace
