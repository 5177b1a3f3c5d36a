// `lanes_coarse` and `lanes_fine`: message-level Elastico epochs whose
// committee lanes run on a 2-process ProcessFabric. One op = one
// ElasticoNetwork::run_epoch. The two shapes sit on either side of the
// granularity choice: coarse epochs (fig2 DES tier) are lane-DES bound, fine
// epochs (`mvcom fabric` defaults) are per-epoch-overhead bound.
//
// The traced run wraps the fabric executor in a span, then re-measures each
// epoch's real task batches outside the op: the wire codecs, and the slowest
// worker partition re-run in-process with run_committee_lane.

#include <algorithm>
#include <bit>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/wire.hpp"
#include "mvcom/problem.hpp"
#include "sharding/elastico.hpp"
#include "sharding/lane.hpp"
#include "txn/trace_generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mvcom;
using common::Rng;
using common::SimTime;
using sharding::ElasticoConfig;
using sharding::ElasticoNetwork;
using sharding::EpochOutcome;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMinBftMembers = 4;

struct Shape {
  ElasticoConfig config;
  std::uint64_t trace_blocks = 0;
  std::uint64_t txs_per_block = 1000;
  std::size_t reference_epochs = 0;  // prefix diffed against in-process
  std::size_t guard_epochs = 0;      // prefix the quality guards average
  std::size_t traced_epochs = 0;
  std::size_t setup_reps = 0;
};

/// The fig2 DES tier: 2^7 committees of 16, 2 s links. 3072 nodes rather
/// than fig2's 2048: at 16 nodes per committee on average, about one epoch
/// in 10^4 draws a final committee too small for BFT and commits no block,
/// and a failed op must not depend on the seed.
Shape coarse_shape(bool tiny) {
  Shape s;
  ElasticoConfig& c = s.config;
  c.num_nodes = tiny ? 384 : 3072;
  c.committee_bits = tiny ? 4 : 7;
  c.committee_size = 16;
  c.message_level_overlay = true;
  c.pow_expected_solve = SimTime(600.0);
  c.overlay_cost_per_node = SimTime(0.5);
  c.link_latency_mean = SimTime(2.0);
  c.pbft.verification_mean = SimTime(16.0);
  c.pbft.view_change_timeout = SimTime(180.0);
  s.trace_blocks = 2 * (std::uint64_t{1} << c.committee_bits);
  // 10k-TX blocks keep α·s_i above the straggler gaps t − l_i, so the
  // final block's Eq.-(2) utility guard stays positive.
  s.txs_per_block = 10'000;
  s.reference_epochs = tiny ? 2 : 8;
  s.guard_epochs = tiny ? 2 : 256;
  s.traced_epochs = tiny ? 3 : 160;
  s.setup_reps = tiny ? 2 : 15;
  return s;
}

/// `mvcom fabric` defaults: 2^3 committees of 6, 1 s links. 256 nodes
/// rather than 128, for the same reason as the coarse shape.
Shape fine_shape(bool tiny) {
  Shape s;
  ElasticoConfig& c = s.config;
  c.num_nodes = 256;
  c.committee_bits = 3;
  c.committee_size = 6;
  c.link_latency_mean = SimTime(1.0);
  c.pbft.verification_mean = SimTime(0.2);
  c.pbft.view_change_timeout = SimTime(120.0);
  s.trace_blocks = 96;
  s.reference_epochs = tiny ? 4 : 64;
  s.guard_epochs = tiny ? 4 : 4096;
  s.traced_epochs = tiny ? 5 : 4000;
  s.setup_reps = tiny ? 2 : 15;
  return s;
}

txn::Trace make_trace(const Shape& shape, std::uint64_t seed) {
  txn::TraceGeneratorConfig tc;
  tc.num_blocks = shape.trace_blocks;
  tc.target_total_txs = shape.trace_blocks * shape.txs_per_block;
  Rng rng(Rng::stream(seed, 0)());
  return txn::generate_trace(tc, rng);
}

fabric::FabricConfig fabric_config() {
  fabric::FabricConfig config;
  config.workers = kWorkers;
  return config;
}

std::uint64_t network_seed(std::uint64_t seed) {
  return Rng::stream(seed, 1)();
}

/// An op fails when the final block did not commit or a populated member
/// committee did not.
bool epoch_ok(const EpochOutcome& out) {
  if (!out.final_committed) return false;
  for (const auto& c : out.committees) {
    if (c.member_count >= kMinBftMembers && !c.committed) return false;
  }
  return true;
}

bool same_epoch(const EpochOutcome& a, const EpochOutcome& b) {
  return a.event_order_digest == b.event_order_digest &&
         a.events_executed == b.events_executed &&
         a.final_block_txs == b.final_block_txs &&
         a.next_epoch_randomness == b.next_epoch_randomness &&
         std::bit_cast<std::uint64_t>(a.epoch_makespan.seconds()) ==
             std::bit_cast<std::uint64_t>(b.epoch_makespan.seconds());
}

/// Quality guards of one epoch, summed over the guard prefix.
struct Guards {
  double age_weighted = 0.0;  // Σ final-block TXs · makespan
  double txs = 0.0;           // Σ final-block TXs
  double claimed = 0.0;       // Σ TXs of the committed member shards
  double utility = 0.0;       // Σ Eq.-(2) utility of the final block
  std::size_t epochs = 0;

  void add(const EpochOutcome& out) {
    ++epochs;
    if (!out.final_committed) return;
    const double block = static_cast<double>(out.final_block_txs);
    age_weighted += block * out.epoch_makespan.seconds();
    txs += block;
    std::vector<core::Committee> committees;
    std::uint64_t total = 0;
    for (const auto& r : out.reports()) {
      committees.push_back({r.committee_id, r.tx_count, r.two_phase_latency()});
      total += r.tx_count;
    }
    claimed += static_cast<double>(total);
    if (committees.empty()) return;
    const core::EpochInstance instance(std::move(committees), 1.5, total, 0);
    utility += instance.utility(core::Selection(instance.size(), 1));
  }
};

/// The fabric's partition: armed committee c runs on worker c % workers.
std::vector<fabric::TaskBatch> partition(
    const std::vector<sharding::LaneTask>& tasks, std::uint64_t epoch) {
  std::vector<fabric::TaskBatch> batches(kWorkers);
  for (auto& b : batches) b.epoch = epoch;
  for (const auto& t : tasks) {
    if (t.armed) batches[t.committee_id % kWorkers].tasks.push_back(t);
  }
  return batches;
}

/// Diffs the first epochs against an in-process serial reference and checks
/// that every armed member committee committed there.
void check_reference(const Options& options, const Shape& shape,
                     const txn::Trace& trace,
                     const std::vector<EpochOutcome>& prefix, Result& result) {
  ElasticoNetwork reference(shape.config, Rng(network_seed(options.seed)));
  std::size_t armed_uncommitted = 0;
  bool tamper = options.tamper == "lane";
  reference.set_lane_executor([&](std::vector<sharding::LaneTask>& tasks,
                                  std::vector<sharding::LaneResult>& results) {
    for (std::size_t c = 0; c < tasks.size(); ++c) {
      results[c] = sharding::run_committee_lane(tasks[c]);
      if (tasks[c].armed && c < tasks[c].member_committees &&
          !results[c].committed) {
        ++armed_uncommitted;
      }
    }
    if (tamper) {
      results[0].order_digest ^= 1;
      tamper = false;
    }
  });
  for (std::size_t e = 0; e < prefix.size(); ++e) {
    const EpochOutcome expected = reference.run_epoch(trace);
    result.check(same_epoch(expected, prefix[e]),
                 "lanes: fabric epoch " + std::to_string(e) +
                     " differs from the in-process serial reference");
  }
  result.check(armed_uncommitted == 0,
               "lanes: an armed member committee did not commit");
}

struct Fleet {
  std::optional<txn::Trace> trace;
  std::optional<fabric::ProcessFabric> fabric;
  std::optional<ElasticoNetwork> network;

  void reset() {
    network.reset();
    fabric.reset();
  }
};

/// Set-up: trace, network, forked fleet (fork + hello) and one cold epoch.
void set_up(const Options& options, const Shape& shape, Fleet& fleet) {
  fleet.reset();
  fleet.trace.emplace(make_trace(shape, options.seed));
  fleet.fabric.emplace(fabric_config());
  fleet.network.emplace(shape.config, Rng(network_seed(options.seed)));
  fleet.network->set_lane_executor(fleet.fabric->executor());
}

void timed(const Options& options, const Shape& shape, Result& result) {
  Fleet fleet;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    set_up(options, shape, fleet);
    // The cold epoch runs on a throwaway network so the timed one starts
    // from epoch 0.
    ElasticoNetwork cold(shape.config, Rng(network_seed(options.seed)));
    cold.set_lane_executor(fleet.fabric->executor());
    (void)cold.run_epoch(*fleet.trace);
    setups.push_back(seconds_since(t0));
  }

  std::vector<double> op_walls;
  std::vector<EpochOutcome> prefix;
  Guards guards;
  double committed = 0.0;
  double rss = 0.0;
  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds ||
         guards.epochs < shape.guard_epochs) {
    ++result.attempted;
    const auto t0 = Clock::now();
    EpochOutcome out;
    try {
      out = fleet.network->run_epoch(*fleet.trace);
    } catch (const std::exception& e) {
      ++result.failed;
      result.check(false, std::string("lanes: run_epoch threw: ") + e.what());
      break;
    }
    op_walls.push_back(seconds_since(t0));
    if (!epoch_ok(out)) ++result.failed;
    if (out.final_committed) {
      committed += static_cast<double>(out.final_block_txs);
    }
    if (guards.epochs < shape.guard_epochs) {
      guards.add(out);
      if (guards.epochs == shape.guard_epochs) rss = peak_rss_mb();
    }
    if (prefix.size() < shape.reference_epochs) prefix.push_back(std::move(out));
  }
  set_op_metrics(result, op_walls, committed, setups, rss);
  // Every respawn is a failed attempt that the fabric retried.
  const auto respawns = static_cast<std::uint64_t>(fleet.fabric->respawns());
  result.attempted += respawns;
  result.failed += respawns;
  result.check(fleet.network->root_chain().validate_full(),
               "lanes: root chain fails validate_full");
  fleet.reset();

  check_reference(options, shape, *fleet.trace, prefix, result);
  result.set("tx_age_mean_s", guards.age_weighted / guards.txs, "s");
  result.set("utility_mean", guards.utility / static_cast<double>(guards.epochs),
             "utility");
  result.set("safety_mean", guards.txs / guards.claimed, "ratio");
}

void traced(const Options& options, const Shape& shape, const char* name,
            Result& result) {
  const std::size_t k = shape.traced_epochs;
  const txn::Trace trace = make_trace(shape, options.seed);
  const std::uint64_t seed = network_seed(options.seed);

  // Untraced reference: the entry point as the timed run calls it, then the
  // same epochs on the default in-process executor.
  std::vector<double> fabric_walls, inprocess_walls;
  std::vector<EpochOutcome> untraced;
  double events = 0.0;
  std::uint64_t respawns = 0;
  {
    fabric::ProcessFabric fleet(fabric_config());
    ElasticoNetwork network(shape.config, Rng(seed));
    network.set_lane_executor(fleet.executor());
    for (std::size_t e = 0; e < k; ++e) {
      const auto t0 = Clock::now();
      untraced.push_back(network.run_epoch(trace));
      fabric_walls.push_back(seconds_since(t0));
      events += static_cast<double>(untraced.back().events_executed);
    }
    respawns += fleet.respawns();
  }
  {
    ElasticoNetwork network(shape.config, Rng(seed));
    for (std::size_t e = 0; e < k; ++e) {
      const auto t0 = Clock::now();
      (void)network.run_epoch(trace);
      inprocess_walls.push_back(seconds_since(t0));
    }
  }

  Tracer tracer;
  obs::MetricsRegistry registry;
  const obs::ObsContext obs{&registry, nullptr};
  fabric::ProcessFabric fleet(fabric_config(), obs);
  ElasticoNetwork network(shape.config, Rng(seed));
  network.set_obs(obs);
  std::uint64_t op = 0;
  int run_span = -1;
  std::vector<sharding::LaneTask> tasks_seen;
  std::vector<sharding::LaneResult> results_seen;
  network.set_lane_executor([&](std::vector<sharding::LaneTask>& tasks,
                                std::vector<sharding::LaneResult>& results) {
    {
      Tracer::Scope s(tracer, "fabric.execute", op, run_span);
      fleet.execute(tasks, results);
    }
    Tracer::Scope s(tracer, "bench.capture", op, run_span);
    tasks_seen = tasks;
    results_seen = results;
  });

  bool match = true;
  double wire_bytes = 0.0, encode = 0.0, decode = 0.0, critical = 0.0;
  double view_changes = 0.0;
  bool lanes_pure = true;
  for (op = 0; op < k; ++op) {
    EpochOutcome out;
    {
      Tracer::Scope o(tracer, "op", op, -1, false);
      Tracer::Scope run(tracer, "sharding.run_epoch", op, o.id());
      run_span = run.id();
      out = network.run_epoch(trace);
    }
    match = match && same_epoch(out, untraced[op]);
    for (const auto& c : out.committees) {
      view_changes += static_cast<double>(c.view_changes);
    }

    // Outside the op: the epoch's real batches through the wire codecs, and
    // each worker partition re-run in-process.
    const auto batches = partition(tasks_seen, op);
    double slowest = 0.0;
    for (const auto& batch : batches) {
      std::vector<std::uint8_t> payload;
      auto t0 = Clock::now();
      fabric::encode_task_batch(payload, batch);
      encode += seconds_since(t0);
      fabric::TaskBatch decoded;
      t0 = Clock::now();
      lanes_pure = fabric::decode_task_batch(payload, decoded) && lanes_pure;
      decode += seconds_since(t0);
      wire_bytes += static_cast<double>(payload.size() + fabric::kFrameHeaderBytes);

      fabric::ResultBatch reply;
      reply.epoch = op;
      t0 = Clock::now();
      for (const auto& task : batch.tasks) {
        reply.results.push_back(sharding::run_committee_lane(task));
      }
      slowest = std::max(slowest, seconds_since(t0));
      std::vector<std::uint8_t> reply_payload;
      t0 = Clock::now();
      fabric::encode_result_batch(reply_payload, reply);
      encode += seconds_since(t0);
      fabric::ResultBatch reply_decoded;
      t0 = Clock::now();
      lanes_pure =
          fabric::decode_result_batch(reply_payload, reply_decoded) && lanes_pure;
      decode += seconds_since(t0);
      wire_bytes +=
          static_cast<double>(reply_payload.size() + fabric::kFrameHeaderBytes);
      for (const auto& r : reply.results) {
        const auto& seen = results_seen.at(r.committee_id);
        lanes_pure = lanes_pure && seen.order_digest == r.order_digest &&
                     seen.events_executed == r.events_executed;
      }
    }
    critical += slowest;
  }
  respawns += fleet.respawns();
  fleet.shutdown();
  result.attempted += k;
  result.check(lanes_pure,
               "lanes: a re-run lane or wire round trip differs from the fabric");

  const double ops = static_cast<double>(k);
  const double execute = tracer.total_seconds("fabric.execute") / ops;
  result.set("sharding.coordinator_s",
             tracer.self_seconds("sharding.run_epoch") / ops, "s");
  result.set("fabric.execute_s", execute, "s");
  result.set("sharding.lane_critical_s", critical / ops, "s");
  result.set("fabric.overhead_s", execute - critical / ops, "s");
  result.set("fabric.wire_bytes_per_epoch", wire_bytes / ops, "B");
  result.set("fabric.encode_s", encode / ops, "s");
  result.set("fabric.decode_s", decode / ops, "s");
  result.set("fabric.speedup_vs_inprocess",
             sum(inprocess_walls) / sum(fabric_walls), "ratio");
  result.set("fabric.respawns", static_cast<double>(respawns), "count");
  result.set("op_wall_p90_s", percentile(fabric_walls, 0.9), "s");
  result.set("sim.events_per_op", events / ops, "count");
  result.set("sim.events_per_s", events / sum(fabric_walls), "1/s");
  result.set("consensus.pbft_messages_per_op",
             counter_total(registry, "mvcom_pbft_messages_total") / ops, "count");
  result.set("consensus.view_changes", view_changes / ops, "count");
  result.set("trace.coverage", tracer.coverage("op"), "ratio");
  result.set("trace.overhead",
             median(tracer.durations("op")) / median(fabric_walls) - 1.0,
             "ratio");
  result.set("trace.replay_match", match ? 1.0 : 0.0, "bool");
  result.set("trace.ops", ops, "count");
  tracer.write(options.out_dir + "/spans-" + name + "-seed" +
               std::to_string(options.seed) + ".json");
}

}  // namespace

void run_lanes(const Options& options, bool coarse, Result& result) {
  const Shape shape = coarse ? coarse_shape(options.tiny)
                             : fine_shape(options.tiny);
  if (options.trace) {
    traced(options, shape, coarse ? "lanes_coarse" : "lanes_fine", result);
  } else {
    timed(options, shape, result);
  }
}

}  // namespace perfbench
