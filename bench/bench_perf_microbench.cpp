// Wall-clock timings of the hot kernels behind the "executes in real time"
// claim of §IV-A, in three tiers. The numbers are printed for reading;
// nothing here judges them.
//
//  * observability overhead: the SE inner loop timed with no ObsContext
//    attached vs with live metrics + tracing sinks, interleaved to cancel
//    thermal/clock drift. The per-iteration cost is a handful of plain
//    thread-local counter increments, flushed to sharded atomics only at
//    share-interval barriers;
//  * PoW grind rate of solve()'s kernel;
//  * DES schedule+fire churn at a steady queue depth.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256_avx512.hpp"
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

/// Observability overhead on the SE inner loop. Takes the best of `kReps`
/// interleaved detached/attached repetitions, so a one-off scheduler stall
/// cannot skew the ratio either way.
void run_overhead() {
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

  std::printf("\n--- observability overhead (SE inner loop) ---\n");
  std::printf("  %zu iterations x %d reps, best-of: detached %.3fs, "
              "attached %.3fs\n",
              kIterations, kReps, best_detached, best_attached);
  std::printf("  overhead: %+.2f%%\n", 100.0 * overhead);
}

/// PoW hash rate of solve()'s grind kernel (one compression per attempt from
/// the cached chaining state, the decimal nonce incremented in place),
/// measured by grinding a fixed attempt count against an unsolvable target
/// (leading64_below = 0 never matches, so solve() always performs exactly
/// kAttempts hashes). The header names which path ground, from the AVX-512F
/// probe: 16 nonces per pass, or 1 per compression (SHA-NI or the portable
/// rounds).
void run_pow_rate() {
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
  const int lanes = mvcom::crypto::avx512f_available() ? 16 : 1;
  std::printf("\n--- PoW grind rate (solve kernel, %d lanes) ---\n", lanes);
  std::printf("  %llu attempts in %.3fs -> %.0f hashes/s%s\n",
              static_cast<unsigned long long>(kAttempts), seconds, rate,
              solution.has_value() ? " (unexpected solution!)" : "");
}

/// DES event churn rate: steady-state schedule+fire pairs at 4096 pending
/// events — the slab/heap engine's throughput number the lane-parallel
/// epoch multiplies by the worker count.
void run_event_churn() {
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
}

}  // namespace

int main() {
  run_overhead();
  run_pow_rate();
  run_event_churn();
  return 0;
}
