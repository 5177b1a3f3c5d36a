// Multi-process shard fabric (DESIGN.md §17): wire-format round-trips,
// adversarial decode fuzz, the 2-process determinism matrix,
// SIGKILL-and-replay recovery, and one shape's epoch digests pinned across
// commits.
//
// The determinism matrix mirrors tests/test_elastico_lanes.cpp one level up:
// where that suite proves a lent thread pool never changes an epoch, this
// one proves worker *processes* don't either — the same scenarios run
// in-process serially and on {1, 2}-worker fabrics, and every outcome field
// is compared bit-for-bit (doubles as their u64 bit patterns). The chaos
// test SIGKILLs a worker mid-epoch and requires the replayed run to land on
// the identical digests, which is the fabric's crash-recovery contract.
//
// The fuzz section follows test_io_fuzz's discipline: decoders must reject
// (never crash, never over-read) truncation at EVERY byte offset, a
// corrupted checksum, an oversized length prefix, and trailing garbage.

#include "fabric/coordinator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "obs/metrics.hpp"
#include "sharding/elastico.hpp"
#include "sharding/lane.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::fabric::CounterDelta;
using mvcom::fabric::FabricConfig;
using mvcom::fabric::FrameType;
using mvcom::fabric::FrameView;
using mvcom::fabric::ParseStatus;
using mvcom::fabric::ProcessFabric;
using mvcom::fabric::ResultBatch;
using mvcom::fabric::TaskBatch;
using mvcom::fabric::WorkerOptions;
using mvcom::sharding::CommitteeOutcome;
using mvcom::sharding::ElasticoConfig;
using mvcom::sharding::ElasticoNetwork;
using mvcom::sharding::EpochOutcome;
using mvcom::sharding::LaneResult;
using mvcom::sharding::LaneTask;
using mvcom::txn::generate_trace;
using mvcom::txn::Trace;
using mvcom::txn::TraceGeneratorConfig;

// --- wire round-trips -----------------------------------------------------

LaneTask sample_task() {
  LaneTask task;
  task.committee_id = 5;
  task.member_committees = 7;
  task.armed = true;
  task.message_level_overlay = true;
  task.num_nodes = 128;
  task.link_latency_mean = SimTime(1.25);
  task.message_loss_probability = 0.02;
  task.pbft.view_change_timeout = SimTime(120.0);
  task.pbft.verification_mean = SimTime(0.2);
  task.pbft.horizon = SimTime(3600.0);
  task.overlay_seed = 0xdeadbeefcafef00dULL;
  task.net_seed = 0x1122334455667788ULL;
  task.cluster_seed = 0x99aabbccddeeff00ULL;
  task.formation = SimTime(642.75);
  task.participants = {3, 17, 42, 99, 100, 127};
  task.ready_at = {SimTime(1.0), SimTime(2.5), SimTime(3.0),
                   SimTime(4.25), SimTime(5.0), SimTime(6.5)};
  task.verify_speeds = {1.0, 0.8, 1.2, 0.95, 1.1, 1.05};
  task.failed = {0, 1, 0, 0, 1, 0};
  return task;
}

void expect_tasks_equal(const LaneTask& a, const LaneTask& b) {
  EXPECT_EQ(a.committee_id, b.committee_id);
  EXPECT_EQ(a.member_committees, b.member_committees);
  EXPECT_EQ(a.armed, b.armed);
  EXPECT_EQ(a.message_level_overlay, b.message_level_overlay);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.link_latency_mean.seconds()),
            std::bit_cast<std::uint64_t>(b.link_latency_mean.seconds()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.message_loss_probability),
            std::bit_cast<std::uint64_t>(b.message_loss_probability));
  EXPECT_EQ(a.overlay_seed, b.overlay_seed);
  EXPECT_EQ(a.net_seed, b.net_seed);
  EXPECT_EQ(a.cluster_seed, b.cluster_seed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.formation.seconds()),
            std::bit_cast<std::uint64_t>(b.formation.seconds()));
  EXPECT_EQ(a.participants, b.participants);
  ASSERT_EQ(a.ready_at.size(), b.ready_at.size());
  for (std::size_t i = 0; i < a.ready_at.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ready_at[i].seconds()),
              std::bit_cast<std::uint64_t>(b.ready_at[i].seconds()));
  }
  EXPECT_EQ(a.verify_speeds, b.verify_speeds);
  EXPECT_EQ(a.failed, b.failed);
}

TEST(FabricWire, TaskBatchRoundTrip) {
  TaskBatch batch;
  batch.epoch = 17;
  batch.tasks.push_back(sample_task());
  LaneTask unarmed;
  unarmed.committee_id = 2;
  unarmed.member_committees = 7;
  batch.tasks.push_back(unarmed);
  // A task whose formation is infinite must survive the f64 bit pattern.
  LaneTask infinite = sample_task();
  infinite.formation = SimTime::infinity();
  infinite.ready_at.clear();
  batch.tasks.push_back(infinite);

  std::vector<std::uint8_t> payload;
  mvcom::fabric::encode_task_batch(payload, batch);
  TaskBatch decoded;
  ASSERT_TRUE(mvcom::fabric::decode_task_batch(payload, decoded));
  EXPECT_EQ(decoded.epoch, 17u);
  ASSERT_EQ(decoded.tasks.size(), 3u);
  for (std::size_t i = 0; i < batch.tasks.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    expect_tasks_equal(batch.tasks[i], decoded.tasks[i]);
  }
  EXPECT_TRUE(decoded.tasks[2].formation.is_infinite());
}

TEST(FabricWire, ResultBatchRoundTrip) {
  ResultBatch batch;
  batch.epoch = 3;
  LaneResult result;
  result.committee_id = 4;
  result.formed = true;
  result.committed = true;
  result.formation = SimTime(655.5);
  result.consensus_latency = SimTime(12.25);
  result.view_changes = 2;
  result.order_digest = 0xfeedface12345678ULL;
  result.events_executed = 991;
  batch.results.push_back(result);
  batch.results.push_back(LaneResult{});  // unarmed: all defaults

  CounterDelta delta;
  delta.name = "pbft_messages_total";
  delta.help = "PBFT protocol messages";
  delta.labels = {{"phase", "prepare"}, {"worker", "1"}};
  delta.delta = 4242;
  batch.obs_deltas.push_back(delta);

  std::vector<std::uint8_t> payload;
  mvcom::fabric::encode_result_batch(payload, batch);
  ResultBatch decoded;
  ASSERT_TRUE(mvcom::fabric::decode_result_batch(payload, decoded));
  EXPECT_EQ(decoded.epoch, 3u);
  ASSERT_EQ(decoded.results.size(), 2u);
  EXPECT_EQ(decoded.results[0].order_digest, 0xfeedface12345678ULL);
  EXPECT_EQ(decoded.results[0].view_changes, 2u);
  EXPECT_TRUE(decoded.results[0].formed);
  EXPECT_FALSE(decoded.results[1].formed);
  EXPECT_EQ(decoded.results[1].order_digest, 0u);
  ASSERT_EQ(decoded.obs_deltas.size(), 1u);
  EXPECT_EQ(decoded.obs_deltas[0].name, "pbft_messages_total");
  EXPECT_EQ(decoded.obs_deltas[0].labels, delta.labels);
  EXPECT_EQ(decoded.obs_deltas[0].delta, 4242u);
}

TEST(FabricWire, ZeroCommitteeOutcomeRoundTrip) {
  // A degenerate epoch (nothing formed, nothing to run) must encode and
  // decode cleanly both ways — empty vectors are legitimate frame content.
  TaskBatch empty_batch;
  empty_batch.epoch = 9;
  std::vector<std::uint8_t> payload;
  mvcom::fabric::encode_task_batch(payload, empty_batch);
  TaskBatch decoded_batch;
  ASSERT_TRUE(mvcom::fabric::decode_task_batch(payload, decoded_batch));
  EXPECT_EQ(decoded_batch.epoch, 9u);
  EXPECT_TRUE(decoded_batch.tasks.empty());

  ResultBatch empty_results;
  empty_results.epoch = 9;
  payload.clear();
  mvcom::fabric::encode_result_batch(payload, empty_results);
  ResultBatch decoded_results;
  ASSERT_TRUE(mvcom::fabric::decode_result_batch(payload, decoded_results));
  EXPECT_EQ(decoded_results.epoch, 9u);
  EXPECT_TRUE(decoded_results.results.empty());
  EXPECT_TRUE(decoded_results.obs_deltas.empty());
}

// --- framing + fuzz -------------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  TaskBatch batch;
  batch.epoch = 1;
  batch.tasks.push_back(sample_task());
  std::vector<std::uint8_t> payload;
  mvcom::fabric::encode_task_batch(payload, batch);
  std::vector<std::uint8_t> frame;
  mvcom::fabric::append_frame(frame, FrameType::kTaskBatch, payload);
  return frame;
}

TEST(FabricWireFuzz, FrameParsesAndConsumes) {
  const std::vector<std::uint8_t> frame = sample_frame();
  std::size_t consumed = 0;
  FrameView view;
  ASSERT_EQ(mvcom::fabric::parse_frame(frame, &consumed, &view),
            ParseStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(view.type, FrameType::kTaskBatch);
  TaskBatch decoded;
  EXPECT_TRUE(mvcom::fabric::decode_task_batch(view.payload, decoded));
}

TEST(FabricWireFuzz, TruncationAtEveryByteNeverParses) {
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t consumed = 0;
    FrameView view;
    const ParseStatus status =
        mvcom::fabric::parse_frame(prefix, &consumed, &view);
    EXPECT_EQ(status, ParseStatus::kNeedMore) << "cut at byte " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FabricWireFuzz, PayloadTruncationAtEveryByteFailsDecode) {
  TaskBatch batch;
  batch.epoch = 1;
  batch.tasks.push_back(sample_task());
  std::vector<std::uint8_t> payload;
  mvcom::fabric::encode_task_batch(payload, batch);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    TaskBatch decoded;
    EXPECT_FALSE(mvcom::fabric::decode_task_batch(
        std::span<const std::uint8_t>(payload.data(), cut), decoded))
        << "cut at byte " << cut;
  }
  // Trailing garbage must fail too (decoders demand full consumption).
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0x00);
  TaskBatch decoded;
  EXPECT_FALSE(mvcom::fabric::decode_task_batch(padded, decoded));
}

TEST(FabricWireFuzz, CorruptedChecksumRejects) {
  std::vector<std::uint8_t> frame = sample_frame();
  // Flip one payload bit: the stored checksum no longer matches.
  frame[mvcom::fabric::kFrameHeaderBytes + 3] ^= 0x10;
  std::size_t consumed = 0;
  FrameView view;
  EXPECT_EQ(mvcom::fabric::parse_frame(frame, &consumed, &view),
            ParseStatus::kCorrupt);
  // Flip a checksum byte instead (payload intact): same verdict.
  std::vector<std::uint8_t> frame2 = sample_frame();
  frame2[5] ^= 0x01;
  consumed = 0;
  EXPECT_EQ(mvcom::fabric::parse_frame(frame2, &consumed, &view),
            ParseStatus::kCorrupt);
}

TEST(FabricWireFuzz, OversizedLengthPrefixRejects) {
  std::vector<std::uint8_t> frame = sample_frame();
  // Length prefix claiming > kMaxFramePayload: must be kCorrupt, not a
  // multi-gigabyte "need more".
  frame[0] = 0xff;
  frame[1] = 0xff;
  frame[2] = 0xff;
  frame[3] = 0xff;
  std::size_t consumed = 0;
  FrameView view;
  EXPECT_EQ(mvcom::fabric::parse_frame(frame, &consumed, &view),
            ParseStatus::kCorrupt);
}

TEST(FabricWireFuzz, UnknownFrameTypeRejects) {
  std::vector<std::uint8_t> frame = sample_frame();
  frame[4] = 0x7f;
  std::size_t consumed = 0;
  FrameView view;
  EXPECT_EQ(mvcom::fabric::parse_frame(frame, &consumed, &view),
            ParseStatus::kCorrupt);
}

TEST(FabricWireFuzz, OversizedInnerLengthFailsDecode) {
  TaskBatch batch;
  batch.epoch = 1;
  batch.tasks.push_back(sample_task());
  std::vector<std::uint8_t> payload;
  mvcom::fabric::encode_task_batch(payload, batch);
  // The task-count u32 sits right after the epoch u64. Claim 2^31 tasks.
  payload[8] = 0x00;
  payload[9] = 0x00;
  payload[10] = 0x00;
  payload[11] = 0x80;
  TaskBatch decoded;
  EXPECT_FALSE(mvcom::fabric::decode_task_batch(payload, decoded));
}

TEST(FabricWireFuzz, RandomMutationsNeverCrash) {
  const std::vector<std::uint8_t> base = sample_frame();
  Rng rng(2024);
  for (int trial = 0; trial < 512; ++trial) {
    std::vector<std::uint8_t> mutated = base;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    std::size_t consumed = 0;
    FrameView view;
    const ParseStatus status =
        mvcom::fabric::parse_frame(mutated, &consumed, &view);
    if (status != ParseStatus::kOk) continue;  // rejected — fine
    TaskBatch decoded;
    (void)mvcom::fabric::decode_task_batch(view.payload, decoded);
  }
  SUCCEED();
}

// --- transport ------------------------------------------------------------

TEST(FabricTransport, BatchedFramesCrossTheSocketInOrder) {
  auto [a, b] = mvcom::fabric::make_channel_pair();
  const std::vector<std::uint8_t> p1 = {1, 2, 3};
  const std::vector<std::uint8_t> p2 = {};
  const std::vector<std::uint8_t> p3(1000, 0xab);
  a.queue_frame(FrameType::kTaskBatch, p1);
  a.queue_frame(FrameType::kShutdown, p2);
  a.queue_frame(FrameType::kResultBatch, p3);
  ASSERT_TRUE(a.flush());  // one batched write for all three

  FrameView frame;
  ASSERT_EQ(b.recv_frame(&frame, 5000), mvcom::fabric::RecvStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kTaskBatch);
  ASSERT_EQ(frame.payload.size(), 3u);
  EXPECT_EQ(frame.payload[2], 3u);
  ASSERT_EQ(b.recv_frame(&frame, 5000), mvcom::fabric::RecvStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kShutdown);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_EQ(b.recv_frame(&frame, 5000), mvcom::fabric::RecvStatus::kOk);
  EXPECT_EQ(frame.payload.size(), 1000u);

  a.close();
  EXPECT_EQ(b.recv_frame(&frame, 5000), mvcom::fabric::RecvStatus::kEof);
}

TEST(FabricTransport, RecvTimesOutWithoutData) {
  auto [a, b] = mvcom::fabric::make_channel_pair();
  FrameView frame;
  EXPECT_EQ(b.recv_frame(&frame, 50), mvcom::fabric::RecvStatus::kTimeout);
  (void)a;
}

// --- 2-process determinism matrix ----------------------------------------

Trace fabric_trace() {
  Rng rng(7);
  TraceGeneratorConfig tc;
  tc.num_blocks = 96;
  tc.target_total_txs = 96'000;
  return generate_trace(tc, rng);
}

ElasticoConfig fabric_config() {
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

std::vector<EpochOutcome> run_in_process(const ElasticoConfig& config,
                                         std::size_t epochs,
                                         const Trace& trace) {
  ElasticoNetwork network(config, Rng(4242));
  std::vector<EpochOutcome> out;
  for (std::size_t e = 0; e < epochs; ++e) {
    out.push_back(network.run_epoch(trace));
  }
  return out;
}

std::vector<EpochOutcome> run_on_fabric(const ElasticoConfig& config,
                                        std::size_t workers,
                                        std::size_t epochs, const Trace& trace,
                                        ProcessFabric* injected = nullptr) {
  FabricConfig fabric_cfg;
  fabric_cfg.workers = workers;
  std::optional<ProcessFabric> own;
  ProcessFabric& fleet =
      injected != nullptr ? *injected : own.emplace(fabric_cfg);
  ElasticoNetwork network(config, Rng(4242));
  network.set_lane_executor(fleet.executor());
  std::vector<EpochOutcome> out;
  for (std::size_t e = 0; e < epochs; ++e) {
    out.push_back(network.run_epoch(trace));
  }
  return out;
}

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

TEST(FabricDeterminism, ProcessCountsAndInProcessAgreeBitwise) {
  constexpr std::size_t kEpochs = 2;
  const Trace trace = fabric_trace();

  const auto run_scenario = [&](const std::string& label,
                                const ElasticoConfig& config) {
    SCOPED_TRACE(label);
    const std::vector<EpochOutcome> reference =
        run_in_process(config, kEpochs, trace);
    std::size_t committed = 0;
    for (const CommitteeOutcome& c : reference.front().committees) {
      if (c.committed) ++committed;
    }
    EXPECT_GT(committed, 0u) << "degenerate epoch: nothing committed";
    for (const std::size_t workers : {1u, 2u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const std::vector<EpochOutcome> fabric =
          run_on_fabric(config, workers, kEpochs, trace);
      ASSERT_EQ(reference.size(), fabric.size());
      for (std::size_t e = 0; e < reference.size(); ++e) {
        SCOPED_TRACE("epoch " + std::to_string(e));
        expect_identical(reference[e], fabric[e]);
      }
    }
  };

  run_scenario("baseline", fabric_config());
  {
    ElasticoConfig config = fabric_config();
    config.node_failure_probability = 0.10;
    config.message_loss_probability = 0.02;
    run_scenario("faulty", config);
  }
  {
    ElasticoConfig config = fabric_config();
    config.message_level_overlay = true;
    run_scenario("message_overlay", config);
  }
}

TEST(FabricDeterminism, SigkillMidEpochReplaysToIdenticalDigests) {
  constexpr std::size_t kEpochs = 3;
  const Trace trace = fabric_trace();
  const ElasticoConfig config = fabric_config();
  const std::vector<EpochOutcome> reference =
      run_in_process(config, kEpochs, trace);

  FabricConfig fabric_cfg;
  fabric_cfg.workers = 2;
  ProcessFabric fleet(fabric_cfg);
  // Murder worker 0 right after epoch 1's dispatch: the coordinator must
  // detect the death, re-fork, replay the batch, and land on the SAME
  // results — crash recovery as pure replay.
  fleet.inject_kill(0, 1);
  const std::vector<EpochOutcome> survived =
      run_on_fabric(config, 2, kEpochs, trace, &fleet);
  EXPECT_GE(fleet.respawns(), 1u);
  ASSERT_EQ(reference.size(), survived.size());
  for (std::size_t e = 0; e < reference.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    expect_identical(reference[e], survived[e]);
  }
}

// A second shape whose epoch digests are pinned across commits: 2^3
// committees of 6 over 128 nodes with a 0.2 s mean verification and the
// other ElasticoConfig defaults, a 64-block trace from Rng(2) and a
// network from Rng(1). The four digests must hold in process, on two
// workers, across a kill-9 replay and with a coordinator registry attached.
Trace pinned_trace() {
  Rng rng(2);
  TraceGeneratorConfig tc;
  tc.num_blocks = 64;
  tc.target_total_txs = 64'000;
  return generate_trace(tc, rng);
}

ElasticoConfig pinned_config() {
  ElasticoConfig config;
  config.num_nodes = 128;
  config.committee_bits = 3;
  config.committee_size = 6;
  config.pbft.verification_mean = SimTime(0.2);
  return config;
}

TEST(FabricDeterminism, PinnedEpochDigestsHoldInEveryMode) {
  constexpr std::uint64_t kPinned[] = {
      0xfed66d81933086b6ULL, 0x5a75ba89c97ae90cULL, 0x3870b72f4b624da6ULL,
      0xfa664a74246f1f5cULL};
  constexpr std::size_t kEpochs = std::size(kPinned);
  const Trace trace = pinned_trace();
  const auto expect_pinned = [&](ProcessFabric* fleet,
                                 mvcom::obs::MetricsRegistry* registry) {
    ElasticoNetwork network(pinned_config(), Rng(1));
    network.set_obs(mvcom::obs::ObsContext(registry, nullptr));
    if (fleet != nullptr) network.set_lane_executor(fleet->executor());
    for (std::size_t e = 0; e < kEpochs; ++e) {
      EXPECT_EQ(network.run_epoch(trace).event_order_digest, kPinned[e])
          << "epoch " << e;
    }
    EXPECT_EQ(network.root_chain().height(), kEpochs);
    EXPECT_TRUE(network.root_chain().validate_full());
  };

  {
    SCOPED_TRACE("in process");
    expect_pinned(nullptr, nullptr);
  }
  {
    SCOPED_TRACE("2 workers");
    ProcessFabric fleet(FabricConfig{2});
    expect_pinned(&fleet, nullptr);
    EXPECT_EQ(fleet.respawns(), 0u);
  }
  {
    SCOPED_TRACE("2 workers, worker 0 killed after epoch 1's dispatch");
    ProcessFabric fleet(FabricConfig{2});
    fleet.inject_kill(0, 1);
    expect_pinned(&fleet, nullptr);
    EXPECT_EQ(fleet.respawns(), 1u);
  }
  {
    SCOPED_TRACE("2 workers, coordinator registry attached");
    mvcom::obs::MetricsRegistry registry;
    ProcessFabric fleet(FabricConfig{2},
                        mvcom::obs::ObsContext(&registry, nullptr));
    expect_pinned(&fleet, &registry);
    EXPECT_EQ(fleet.respawns(), 0u);
    // The workers counted: each folded one epoch per batch it received.
    std::uint64_t worker_epochs = 0;
    for (const auto& snap : registry.snapshot()) {
      if (snap.name == "fabric_worker_epochs_total") {
        worker_epochs += static_cast<std::uint64_t>(snap.value);
      }
    }
    EXPECT_EQ(worker_epochs, 2 * kEpochs);
  }
}

TEST(FabricDeterminism, ObsCounterDeltasFoldLikeSharedRegistry) {
  // The worker ships per-epoch counter deltas; folded coordinator-side they
  // must equal what one shared registry would have counted in-process.
  const Trace trace = fabric_trace();
  const ElasticoConfig config = fabric_config();

  mvcom::obs::MetricsRegistry in_process;
  {
    ElasticoNetwork network(config, Rng(4242));
    network.set_obs(mvcom::obs::ObsContext(&in_process, nullptr));
    (void)network.run_epoch(trace);
  }

  mvcom::obs::MetricsRegistry folded;
  {
    FabricConfig fabric_cfg;
    fabric_cfg.workers = 2;
    ProcessFabric fleet(fabric_cfg,
                        mvcom::obs::ObsContext(&folded, nullptr));
    ElasticoNetwork network(config, Rng(4242));
    network.set_obs(mvcom::obs::ObsContext(&folded, nullptr));
    network.set_lane_executor(fleet.executor());
    (void)network.run_epoch(trace);
  }

  // Compare every counter family the in-process run produced (the fabric
  // run adds its own fabric_* counters on top; lane counters must match).
  for (const auto& snap : in_process.snapshot()) {
    if (snap.type != mvcom::obs::MetricsRegistry::Type::kCounter) continue;
    // Zero-valued families are registered but never shipped (deltas carry
    // only increments) — nothing to compare.
    if (static_cast<std::uint64_t>(snap.value) == 0) continue;
    SCOPED_TRACE(snap.name);
    bool found = false;
    for (const auto& other : folded.snapshot()) {
      if (other.name != snap.name) continue;
      bool same_labels = other.labels.size() == snap.labels.size();
      for (std::size_t i = 0; same_labels && i < snap.labels.size(); ++i) {
        same_labels = other.labels[i].key == snap.labels[i].key &&
                      other.labels[i].value == snap.labels[i].value;
      }
      if (!same_labels) continue;
      found = true;
      EXPECT_EQ(static_cast<std::uint64_t>(other.value),
                static_cast<std::uint64_t>(snap.value));
    }
    EXPECT_TRUE(found) << "counter missing from folded registry";
  }
}

TEST(FabricDeterminism, WorkerCountsOnlyWhenAsked) {
  // One epoch's armed lane tasks, captured from an in-process network, go
  // through run_worker_loop over a channel pair with and without the count
  // flag. Uncounted, the reply carries no counter deltas; counted, it does;
  // and the lane results are bitwise equal either way, and to the lanes run
  // in process.
  const Trace trace = fabric_trace();
  ElasticoNetwork network(fabric_config(), Rng(4242));
  TaskBatch batch;
  batch.epoch = 3;
  std::vector<LaneResult> in_process;
  network.set_lane_executor([&](std::vector<LaneTask>& tasks,
                                std::vector<LaneResult>& results) {
    results.resize(tasks.size());
    for (std::size_t c = 0; c < tasks.size(); ++c) {
      results[c] = mvcom::sharding::run_committee_lane(tasks[c]);
      if (!tasks[c].armed) continue;
      batch.tasks.push_back(tasks[c]);
      in_process.push_back(results[c]);
    }
  });
  (void)network.run_epoch(trace);
  ASSERT_FALSE(batch.tasks.empty());

  // The whole exchange fits the socket buffers, so one thread plays both
  // sides: queue the batch and the shutdown, run the worker to its exit,
  // then read its hello and reply.
  const auto drive = [&batch](bool count) {
    auto [coordinator, worker] = mvcom::fabric::make_channel_pair();
    std::vector<std::uint8_t> payload;
    mvcom::fabric::encode_task_batch(payload, batch);
    coordinator.queue_frame(FrameType::kTaskBatch, payload);
    coordinator.queue_frame(FrameType::kShutdown, {});
    EXPECT_TRUE(coordinator.flush());
    WorkerOptions options;
    options.index = 1;
    options.count = count;
    EXPECT_EQ(mvcom::fabric::run_worker_loop(worker, options), 0);
    FrameView frame;
    ResultBatch reply;
    EXPECT_EQ(coordinator.recv_frame(&frame, 5000),
              mvcom::fabric::RecvStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kHello);
    EXPECT_EQ(coordinator.recv_frame(&frame, 5000),
              mvcom::fabric::RecvStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kResultBatch);
    EXPECT_TRUE(mvcom::fabric::decode_result_batch(frame.payload, reply));
    return reply;
  };
  const ResultBatch counted = drive(true);
  const ResultBatch uncounted = drive(false);

  EXPECT_FALSE(counted.obs_deltas.empty());
  EXPECT_TRUE(uncounted.obs_deltas.empty());
  EXPECT_EQ(counted.epoch, batch.epoch);
  EXPECT_EQ(uncounted.epoch, batch.epoch);
  ASSERT_EQ(counted.results.size(), in_process.size());
  ASSERT_EQ(uncounted.results.size(), in_process.size());
  const auto bits = [](SimTime t) {
    return std::bit_cast<std::uint64_t>(t.seconds());
  };
  for (std::size_t i = 0; i < in_process.size(); ++i) {
    const LaneResult& want = in_process[i];
    for (const LaneResult* got : {&counted.results[i], &uncounted.results[i]}) {
      SCOPED_TRACE("lane " + std::to_string(want.committee_id));
      EXPECT_EQ(got->committee_id, want.committee_id);
      EXPECT_EQ(got->formed, want.formed);
      EXPECT_EQ(got->committed, want.committed);
      EXPECT_EQ(bits(got->formation), bits(want.formation));
      EXPECT_EQ(bits(got->consensus_latency), bits(want.consensus_latency));
      EXPECT_EQ(got->view_changes, want.view_changes);
      EXPECT_EQ(got->order_digest, want.order_digest);
      EXPECT_EQ(got->events_executed, want.events_executed);
    }
  }
}

}  // namespace
