// bench_fabric — throughput of the multi-process shard fabric (DESIGN.md
// §17) against the in-process lane pool it replaces.
//
// Two tiers:
//   epochs  — identical Elastico epochs on (a) the serial in-process path,
//             (b) a lent 2-worker thread pool, (c) a 2-process fabric; each
//             reports epochs/sec, and the pool's and the fabric's epochs are
//             diffed bitwise against the serial reference (FAIL on
//             divergence).
//   replay  — the fabric with one SIGKILL injected mid-run: wall clock of
//             the crash-detect + re-fork + replay path, digests still diffed.
//
// The fabric's speedup over serial is only observable with >= 2 free cores;
// it is printed, not judged. The bench exits 1 when any arm's epochs differ
// from the serial reference.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "fabric/coordinator.hpp"
#include "sharding/elastico.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::sharding::ElasticoConfig;
using mvcom::sharding::ElasticoNetwork;
using mvcom::sharding::EpochOutcome;

double secs_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ElasticoConfig bench_config() {
  ElasticoConfig config;
  config.num_nodes = 128;
  config.committee_size = 6;
  config.committee_bits = 3;
  config.link_latency_mean = SimTime(1.0);
  config.pbft.verification_mean = SimTime(0.2);
  config.pbft.view_change_timeout = SimTime(120.0);
  return config;
}

mvcom::txn::Trace bench_trace() {
  Rng rng(7);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 96;
  tc.target_total_txs = 96'000;
  return mvcom::txn::generate_trace(tc, rng);
}

bool digests_equal(const std::vector<EpochOutcome>& a,
                   const std::vector<EpochOutcome>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    mvcom::sharding::same_epoch);
}

/// Runs `epochs` epochs with lanes on `pool` or `fleet` (both null: inline).
std::vector<EpochOutcome> run_epochs(const ElasticoConfig& config,
                                     std::size_t epochs,
                                     const mvcom::txn::Trace& trace,
                                     mvcom::common::ThreadPool* pool,
                                     mvcom::fabric::ProcessFabric* fleet,
                                     double* seconds) {
  ElasticoNetwork network(config, Rng(4242), pool);
  if (fleet != nullptr) network.set_lane_executor(fleet->executor());
  std::vector<EpochOutcome> out;
  out.reserve(epochs);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    out.push_back(network.run_epoch(trace));
  }
  *seconds = secs_since(start);
  return out;
}

}  // namespace

int main() {
  mvcom::bench::BenchJson json("fabric");
  const unsigned cores = std::thread::hardware_concurrency();
  mvcom::bench::print_header(
      "Fabric", "multi-process shard fabric vs in-process lanes");
  std::printf("  hardware threads available: %u\n", cores);

  // --- epoch tier ---------------------------------------------------------
  const auto trace = bench_trace();
  const ElasticoConfig config = bench_config();
  // Enough epochs that the per-arm wall clock is measurable (hundreds of
  // ms), so the printed rates average out scheduler noise on small boxes.
  constexpr std::size_t kEpochs = 400;

  double serial_seconds = 0.0;
  const auto serial =
      run_epochs(config, kEpochs, trace, nullptr, nullptr, &serial_seconds);

  double pooled_seconds = 0.0;
  std::vector<EpochOutcome> pooled;
  {
    // Scoped so that no pool worker is alive when ProcessFabric forks.
    mvcom::common::ThreadPool pool(2);
    pooled =
        run_epochs(config, kEpochs, trace, &pool, nullptr, &pooled_seconds);
  }

  double fabric_seconds = 0.0;
  std::vector<EpochOutcome> fabric;
  {
    mvcom::fabric::FabricConfig fabric_cfg;
    fabric_cfg.workers = 2;
    mvcom::fabric::ProcessFabric fleet(fabric_cfg);
    fabric =
        run_epochs(config, kEpochs, trace, nullptr, &fleet, &fabric_seconds);
  }

  const double serial_rate = kEpochs / serial_seconds;
  const double pooled_rate = kEpochs / pooled_seconds;
  const double fabric_rate = kEpochs / fabric_seconds;
  const bool identical =
      digests_equal(serial, pooled) && digests_equal(serial, fabric);
  std::printf("  serial    : %.3fs (%.2f epochs/s)\n", serial_seconds,
              serial_rate);
  std::printf("  pool x2   : %.3fs (%.2f epochs/s)\n", pooled_seconds,
              pooled_rate);
  std::printf("  fabric x2 : %.3fs (%.2f epochs/s, %.2fx vs serial)\n",
              fabric_seconds, fabric_rate, fabric_rate / serial_rate);
  std::printf("  determinism: digests %s\n",
              identical ? "identical (PASS)" : "DIVERGED (FAIL)");
  json.set("epochs", static_cast<double>(kEpochs));
  json.set("serial_epochs_per_sec", serial_rate);
  json.set("pool2_epochs_per_sec", pooled_rate);
  json.set("digests_identical", identical ? 1.0 : 0.0);
  json.set("hardware_threads", static_cast<double>(cores));
  json.set("rate_fabric_epochs_per_sec", fabric_rate);

  // --- replay tier --------------------------------------------------------
  double replay_seconds = 0.0;
  std::vector<EpochOutcome> replayed;
  std::uint64_t respawns = 0;
  {
    mvcom::fabric::FabricConfig fabric_cfg;
    fabric_cfg.workers = 2;
    mvcom::fabric::ProcessFabric fleet(fabric_cfg);
    fleet.inject_kill(0, kEpochs / 2);
    replayed =
        run_epochs(config, kEpochs, trace, nullptr, &fleet, &replay_seconds);
    respawns = fleet.respawns();
  }
  const bool replay_identical = digests_equal(serial, replayed);
  std::printf("  kill-replay: %.3fs (%llu respawns), digests %s\n",
              replay_seconds, static_cast<unsigned long long>(respawns),
              replay_identical ? "identical (PASS)" : "DIVERGED (FAIL)");
  json.set("replay_respawns", static_cast<double>(respawns));
  json.set("replay_digests_identical", replay_identical ? 1.0 : 0.0);
  json.set("rate_fabric_replay_epochs_per_sec", kEpochs / replay_seconds);

  json.write();
  return identical && replay_identical ? 0 : 1;
}
