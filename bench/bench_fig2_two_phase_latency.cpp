// Fig. 2 — measurement of the two-phase latency under Elastico.
//   (a) committee-formation vs intra-committee consensus latency as the
//       network size scales from 100 to 1000 nodes: formation consumes the
//       larger portion and grows ~linearly with network size.
//   (b) CDF of both latency terms at a fixed network size: each is randomly
//       distributed within its own range.
// Regenerated here with the message-level Elastico + PBFT simulators.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "sharding/elastico.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;

mvcom::sharding::ElasticoConfig config_for(std::size_t nodes) {
  mvcom::sharding::ElasticoConfig config;
  config.num_nodes = nodes;
  config.committee_size = 8;
  // Elastico scales committee count with the network: ~14 nodes/committee.
  int bits = 1;
  while ((std::size_t{1} << (bits + 1)) * 14 <= nodes) ++bits;
  config.committee_bits = bits;
  config.pow_expected_solve = SimTime(600.0);
  config.overlay_cost_per_node = SimTime(0.5);
  config.link_latency_mean = SimTime(2.0);
  config.pbft.verification_mean = SimTime(16.0);
  config.pbft.view_change_timeout = SimTime(180.0);
  return config;
}

struct LatencySample {
  std::vector<double> formation;
  std::vector<double> consensus;
};

LatencySample measure(std::size_t nodes, std::uint64_t seeds) {
  const auto trace = mvcom::bench::paper_trace();
  LatencySample sample;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    mvcom::sharding::ElasticoNetwork network(config_for(nodes),
                                             Rng(1000 + seed));
    const auto outcome = network.run_epoch(trace);
    for (const auto& c : outcome.committees) {
      if (!c.committed) continue;
      sample.formation.push_back(c.formation_latency.seconds());
      sample.consensus.push_back(c.consensus_latency.seconds());
    }
  }
  return sample;
}

// --- DES scale tier -------------------------------------------------------
// The lane-parallel substrate at scale: message-level epochs at a node count
// large enough that the directory exchanges dominate (the linear-in-N
// stage), run serially (no pool) and on a lent 8-worker lane pool. Both wall
// clocks and their ratio are printed, not judged; the two runs must report
// identical event-order digests (the determinism contract, enforced
// bit-exactly by test_elastico_lanes — re-checked here at scale, and the
// bench exits 1 when they diverge).

struct DesRun {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> digests;
};

DesRun timed_des_epochs(const mvcom::sharding::ElasticoConfig& config,
                        mvcom::common::ThreadPool* pool, std::uint64_t epochs,
                        const mvcom::txn::Trace& trace) {
  mvcom::sharding::ElasticoNetwork network(config, Rng(77), pool);
  DesRun run;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const auto outcome = network.run_epoch(trace);
    run.events += outcome.events_executed;
    run.digests.push_back(outcome.event_order_digest);
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

/// Returns false when the serial and laned runs diverge.
bool run_des_scale_tier() {
  std::size_t nodes = 2048;
  if (mvcom::bench::scale_full_enabled()) nodes = 4096;
  constexpr std::uint64_t kEpochs = 16;
  constexpr std::size_t kLanes = 8;

  mvcom::sharding::ElasticoConfig config = config_for(nodes);
  config.message_level_overlay = true;
  // Quadratic PBFT traffic per committee keeps the DES (not the setup code)
  // the measured cost: ~1M events across the run.
  config.committee_size = 16;
  // Enough blocks for one shard per member committee at this scale.
  Rng trace_rng(31);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 2 * (std::size_t{1} << config.committee_bits);
  tc.target_total_txs = tc.num_blocks * 1000;
  const mvcom::txn::Trace trace = generate_trace(tc, trace_rng);

  mvcom::bench::print_header(
      "DES scale", "lane-parallel epoch substrate (message-level overlay)");
  std::printf("  %zu nodes, %d committee bits, %llu epochs\n", nodes,
              config.committee_bits,
              static_cast<unsigned long long>(kEpochs));

  // The serial and laned runs must report identical digests — the
  // bitwise-determinism witness across lane counts.
  const DesRun serial = timed_des_epochs(config, nullptr, kEpochs, trace);
  mvcom::common::ThreadPool pool(kLanes);
  const DesRun laned = timed_des_epochs(config, &pool, kEpochs, trace);
  const bool identical =
      serial.digests == laned.digests && serial.events == laned.events;
  const double serial_rate = static_cast<double>(serial.events) /
                             serial.seconds;
  const double speedup = serial.seconds / laned.seconds;

  std::printf("  serial   : %.3fs (%llu events, %.0f events/s)\n",
              serial.seconds,
              static_cast<unsigned long long>(serial.events), serial_rate);
  std::printf("  %zu lanes  : %.3fs (speedup %.2fx)\n", kLanes, laned.seconds,
              speedup);
  std::printf("  determinism: digests %s\n",
              identical ? "identical (PASS)" : "DIVERGED (FAIL)");

  return identical;
}

}  // namespace

int main() {
  mvcom::bench::print_header(
      "Fig. 2(a)", "two-phase latency vs network size (Elastico, simulated)");
  std::printf("  %8s %12s %12s %12s\n", "nodes", "formation(s)",
              "consensus(s)", "form-share");
  for (const std::size_t nodes : {100u, 200u, 400u, 600u, 800u, 1000u}) {
    const LatencySample sample = measure(nodes, 5);
    const double f = mvcom::common::mean(sample.formation);
    const double c = mvcom::common::mean(sample.consensus);
    std::printf("  %8zu %12.1f %12.1f %11.0f%%\n", nodes, f, c,
                100.0 * f / (f + c));
  }
  std::printf("  (expected shape: formation dominates and grows ~linearly "
              "with network size)\n");

  mvcom::bench::print_header("Fig. 2(b)",
                             "CDF of two-phase latency terms at 400 nodes");
  const LatencySample sample = measure(400, 4);
  const auto f_cdf = mvcom::common::cdf_at_quantiles(sample.formation, 11);
  const auto c_cdf = mvcom::common::cdf_at_quantiles(sample.consensus, 11);
  std::printf("  %6s %16s %16s\n", "CDF", "formation(s)", "consensus(s)");
  for (std::size_t i = 0; i < f_cdf.size(); ++i) {
    std::printf("  %5.0f%% %16.1f %16.1f\n",
                100.0 * f_cdf[i].cumulative_probability, f_cdf[i].value,
                c_cdf[i].value);
  }
  std::printf("  (expected shape: both terms random within their own range; "
              "formation range is much wider)\n");

  const bool identical = run_des_scale_tier();
  return identical ? 0 : 1;
}
