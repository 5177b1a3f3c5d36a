// Determinism matrix for the lane-parallel Elastico epoch (DESIGN.md §12).
//
// The contract under test: ElasticoConfig::lane_workers changes only the
// wall-clock shape of stage 2/3 — never any result. Every lane draws from an
// RNG substream forked in committee order before any lane runs, and lane
// outcomes merge back in committee order, so serial (lane_workers = 0) and
// pool-backed runs with any worker count are bitwise-identical: the same
// per-committee formation/consensus latencies (compared as doubles, i.e.
// bit-exact), the same commit flags and view-change counts, the same final
// block, and the same DES event-order digest. The matrix covers four
// scenario classes (baseline, faulty, message-level overlay, churn) at
// lane_workers {0, 1, 2, 8}.
//
// Comparing worker counts within one build cannot catch a change that moves
// an event in all of them, so each scenario's SHA-256 outcome digest (every
// epoch field plus the simulator's event-order digest) is also pinned to a
// constant, one SimKernelsDifferential test per scenario: the DES event
// stream itself is fixed across commits. A change that moves one must say
// why and re-pin it.
//
// The worker-count matrix writes the same digests to a file when
// MVCOM_DES_DETERMINISM_DIGEST is set. CI runs it in MVCOM_OBS=ON and
// OBS=OFF builds and diffs the two files, extending the bitwise guarantee
// across observability builds (which no single binary can check alone).

#include "sharding/elastico.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
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

/// Runs `epochs` consecutive epochs from one seed at the given worker count
/// and returns every outcome (epoch chaining exercises the randomness
/// refresh under lanes too).
std::vector<EpochOutcome> run_epochs(const ElasticoConfig& base,
                                     std::size_t lane_workers,
                                     std::size_t epochs, const Trace& trace) {
  ElasticoConfig config = base;
  config.lane_workers = lane_workers;
  ElasticoNetwork network(config, Rng(4242));
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
/// WorkerCountsAndSerialAgreeBitwise extends the result to every lane-worker
/// count.
void expect_pinned(std::string_view label) {
  for (const Scenario& s : scenarios()) {
    if (s.label != label) continue;
    const std::vector<EpochOutcome> serial =
        run_epochs(s.config, 0, kEpochs, lane_trace());
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
  const char* digest_path = std::getenv("MVCOM_DES_DETERMINISM_DIGEST");
  std::ofstream digest_out;
  if (digest_path != nullptr && *digest_path != '\0') {
    digest_out.open(digest_path, std::ios::trunc);
    ASSERT_TRUE(digest_out) << "cannot open " << digest_path;
  }

  const Trace trace = lane_trace();
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.label);
    const std::vector<EpochOutcome> serial =
        run_epochs(s.config, 0, kEpochs, trace);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("lane_workers=" + std::to_string(workers));
      const std::vector<EpochOutcome> pooled =
          run_epochs(s.config, workers, kEpochs, trace);
      ASSERT_EQ(serial.size(), pooled.size());
      for (std::size_t e = 0; e < serial.size(); ++e) {
        SCOPED_TRACE("epoch " + std::to_string(e));
        expect_identical(serial[e], pooled[e]);
      }
    }
    if (digest_out.is_open()) {
      digest_out << s.label << " " << outcome_digest(serial) << "\n";
    }
  }
}

TEST(ElasticoLaneMatrix, LanedEpochMatchesStructuralExpectations) {
  // Sanity independent of the serial reference: a pooled run on its own
  // still produces a committed final block and a populated digest.
  ElasticoConfig config = lane_config();
  config.lane_workers = 4;
  ElasticoNetwork network(config, Rng(99));
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
  ElasticoConfig config = lane_config();
  const Trace trace = lane_trace();
  const std::vector<EpochOutcome> plain = run_epochs(config, 8, 2, trace);

  mvcom::obs::MetricsRegistry registry;
  mvcom::obs::TraceRecorder recorder;
  ElasticoConfig attached_config = config;
  attached_config.lane_workers = 8;
  ElasticoNetwork network(attached_config, Rng(4242));
  network.set_obs(mvcom::obs::ObsContext(&registry, &recorder));
  std::vector<EpochOutcome> attached;
  attached.push_back(network.run_epoch(trace));
  attached.push_back(network.run_epoch(trace));

  for (std::size_t e = 0; e < plain.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    expect_identical(plain[e], attached[e]);
  }
}

}  // namespace
