// Wall-clock timings of the hot kernels behind the "executes in real time"
// claim of §IV-A, in four tiers, each written to BENCH_perf_microbench.json
// (the gate_* keys feed tools/bench_compare.py):
//
//  * observability overhead guard: the SE inner loop timed with no
//    ObsContext attached vs with live metrics + tracing sinks, interleaved
//    to cancel thermal/clock drift. The attached path must stay within a
//    few percent (<5% target) of the detached one — the per-iteration cost
//    is a handful of plain thread-local counter increments, flushed to
//    sharded atomics only at share-interval barriers;
//  * SE scale throughput: scheduler construction and step rate at 10k
//    committees (and 50k under MVCOM_BENCH_SCALE=full);
//  * PoW grind rate of solve()'s kernel;
//  * DES schedule+fire churn at a steady queue depth.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256_avx512.hpp"
#include "crypto/sha256_ni.hpp"
#include "mvcom/se_scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;

mvcom::core::EpochInstance make_instance(std::size_t n) {
  Rng rng(1);
  std::vector<mvcom::core::Committee> committees;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mvcom::core::Committee c{static_cast<std::uint32_t>(i),
                             500 + rng.below(1500),
                             600.0 + rng.uniform(0.0, 900.0)};
    total += c.txs;
    committees.push_back(c);
  }
  return mvcom::core::EpochInstance(std::move(committees), 1.5,
                                    (total * 7) / 10, 0);
}

/// Wall seconds for `iterations` SE iterations on a fresh scheduler.
double timed_advance(const mvcom::core::EpochInstance& instance,
                     mvcom::obs::ObsContext obs, std::size_t iterations) {
  mvcom::core::SeParams params;
  params.threads = 4;
  params.max_iterations = iterations * 2;  // never stop inside the run
  params.convergence_window = params.max_iterations;
  mvcom::core::SeScheduler scheduler(instance, params, 3);
  scheduler.set_obs(obs);
  const auto start = std::chrono::steady_clock::now();
  scheduler.advance(iterations);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Observability overhead guard (<5% target on the SE inner loop). Takes
/// the best of `kReps` interleaved detached/attached repetitions, so a
/// one-off scheduler stall cannot fake a regression either way.
void run_overhead_guard(mvcom::bench::BenchJson& json) {
  const auto instance = make_instance(200);
  constexpr std::size_t kIterations = 20'000;
  constexpr int kReps = 5;

  mvcom::obs::MetricsRegistry registry;
  mvcom::obs::TraceRecorder recorder;
  const mvcom::obs::ObsContext attached(&registry, &recorder);
  const mvcom::obs::ObsContext detached;

  (void)timed_advance(instance, detached, kIterations);  // warm-up
  double best_detached = 0.0;
  double best_attached = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double d = timed_advance(instance, detached, kIterations);
    const double a = timed_advance(instance, attached, kIterations);
    best_detached = rep == 0 ? d : std::min(best_detached, d);
    best_attached = rep == 0 ? a : std::min(best_attached, a);
  }
  const double overhead = best_attached / best_detached - 1.0;

  std::printf("\n--- observability overhead guard (SE inner loop) ---\n");
  std::printf("  %zu iterations x %d reps, best-of: detached %.3fs, "
              "attached %.3fs\n",
              kIterations, kReps, best_detached, best_attached);
  std::printf("  overhead: %+.2f%% (target < 5%%) -> %s\n", 100.0 * overhead,
              overhead < 0.05 ? "PASS" : "FAIL");

  json.set("se_overhead_iterations", static_cast<double>(kIterations));
  json.set("se_detached_best_seconds", best_detached);
  json.set("se_attached_best_seconds", best_attached);
  json.set("se_obs_overhead_fraction", overhead);
  json.set("se_obs_overhead_pass", overhead < 0.05 ? 1.0 : 0.0);
  // Perf-gate key (tools/bench_compare.py): lower-is-better wall clock.
  json.set("gate_seconds_se_inner_20k", best_detached);
}

/// Scale throughput: SE scheduler construction time and steady-state step
/// rate at 10k (and, under MVCOM_BENCH_SCALE=full, 50k) committees — the
/// perf-gate numbers behind the 50k-committee tentpole.
void run_scale_throughput(mvcom::bench::BenchJson& json) {
  std::printf("\n--- SE scale throughput ---\n");
  std::vector<std::size_t> tiers = {10'000};
  if (mvcom::bench::scale_full_enabled()) tiers.push_back(50'000);
  for (const std::size_t icount : tiers) {
    const auto instance = mvcom::bench::scale_instance(icount);
    mvcom::core::SeParams params;
    params.threads = 1;
    if (icount > 10'000) params.max_family = 256;
    const auto c0 = std::chrono::steady_clock::now();
    mvcom::core::SeScheduler scheduler(instance, params, 3);
    const double ctor_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    scheduler.advance(20);  // warm-up: fault in the chain state
    constexpr std::size_t kIters = 200;
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.advance(kIters);
    const double step_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rate = static_cast<double>(kIters) / step_seconds;
    std::printf("  I=%zu: ctor %.3fs, %.0f iters/s (%zu chains/iteration)\n",
                icount, ctor_seconds, rate,
                scheduler.layout().family.size());
    const std::string tag = std::to_string(icount);
    json.set("scale_" + tag + "_family_chains",
             static_cast<double>(scheduler.layout().family.size()));
    json.set("gate_seconds_se_ctor_" + tag, ctor_seconds);
    json.set("gate_rate_se_step_" + tag, rate);
  }
}

/// PoW hash rate of solve()'s grind kernel (one compression per attempt from
/// the cached chaining state, the decimal nonce incremented in place),
/// measured by grinding a fixed attempt count against an unsolvable target
/// (leading64_below = 0 never matches, so solve() always performs exactly
/// kAttempts hashes). `pow_grind_lanes` records which path ground, from the
/// two CPU probes: 16 nonces per AVX-512F pass, 2 interleaved SHA-NI
/// streams, or 1 for the portable rounds.
void run_pow_rate(mvcom::bench::BenchJson& json) {
  constexpr std::uint64_t kAttempts = 200'000;
  const mvcom::crypto::PowTarget unsolvable{0};
  (void)mvcom::crypto::solve("bench-epoch-randomness", "node-12345",
                             unsolvable, kAttempts / 10);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  const auto solution = mvcom::crypto::solve("bench-epoch-randomness",
                                             "node-12345", unsolvable,
                                             kAttempts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double rate = static_cast<double>(kAttempts) / seconds;
  const int lanes = mvcom::crypto::avx512f_available() ? 16
                    : mvcom::crypto::sha_ni_available()  ? 2
                                                         : 1;
  std::printf("\n--- PoW grind rate (solve kernel, %d lanes) ---\n", lanes);
  std::printf("  %llu attempts in %.3fs -> %.0f hashes/s%s\n",
              static_cast<unsigned long long>(kAttempts), seconds, rate,
              solution.has_value() ? " (unexpected solution!)" : "");
  json.set("pow_grind_attempts", static_cast<double>(kAttempts));
  json.set("pow_grind_lanes", static_cast<double>(lanes));
  json.set("gate_rate_pow_grind", rate);
}

/// DES event churn rate: steady-state schedule+fire pairs at 4096 pending
/// events — the slab/heap engine's throughput number the lane-parallel
/// epoch multiplies by the worker count.
void run_event_churn(mvcom::bench::BenchJson& json) {
  constexpr std::size_t kDepth = 4096;
  constexpr std::size_t kEvents = 2'000'000;
  mvcom::sim::Simulator sim;
  Rng rng(13);
  for (std::size_t i = 0; i < kDepth; ++i) {
    sim.schedule_at(SimTime(rng.uniform(0.0, 100.0)), [] {});
  }
  sim.run(kDepth / 2);  // warm-up: heap + slab are hot
  for (std::size_t i = 0; i < kDepth / 2; ++i) {
    sim.schedule_after(SimTime(rng.uniform(0.0, 100.0)), [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kEvents; ++i) {
    sim.run(1);
    sim.schedule_after(SimTime(rng.uniform(0.0, 100.0)), [] {});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double rate = static_cast<double>(kEvents) / seconds;
  std::printf("\n--- DES event churn (depth %zu) ---\n", kDepth);
  std::printf("  %zu schedule+fire pairs in %.3fs -> %.0f events/s\n",
              kEvents, seconds, rate);
  json.set("sim_churn_depth", static_cast<double>(kDepth));
  json.set("gate_rate_sim_event_churn", rate);
}

}  // namespace

int main() {
  mvcom::bench::BenchJson json("perf_microbench");
  run_overhead_guard(json);
  run_scale_throughput(json);
  run_pow_rate(json);
  run_event_churn(json);
  json.write();
  return 0;
}
