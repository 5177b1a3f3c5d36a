// Google-benchmark microbenchmarks for the hot paths: SE iteration cost vs
// |I|, SwapSet operations, SHA-256 throughput, one full PBFT instance, and
// the DP knapsack solve. These quantify the "executes in real time" claim
// of §IV-A — one SE iteration must be far cheaper than the inter-report
// arrival gaps it schedules around.
//
// After the google-benchmark suite, a custom main runs the observability
// overhead guard: the SE inner loop timed with no ObsContext attached vs
// with live metrics + tracing sinks, interleaved to cancel thermal/clock
// drift. The attached path must stay within a few percent (<5% target) of
// the detached one — the per-iteration cost is a handful of plain
// thread-local counter increments, flushed to sharded atomics only at
// share-interval barriers. Results land in BENCH_perf_microbench.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/dynamic_programming.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "consensus/pbft.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256.hpp"
#include "mvcom/se_scheduler.hpp"
#include "mvcom/swap_set.hpp"
#include "net/network.hpp"
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

void BM_SeStep(benchmark::State& state) {
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
  mvcom::core::SeParams params;
  params.threads = 1;
  mvcom::core::SeScheduler scheduler(instance, params, 3);
  for (auto _ : state) {
    scheduler.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeStep)->Arg(50)->Arg(200)->Arg(500)->Arg(1000)->Arg(10000);

// Wall-clock cost of one barrier-to-barrier block of Γ explorers (|I|=200,
// 100 iterations per block — the default share_interval granularity), with
// the Γ chains advanced serially vs on a lent pool of Γ − 1 workers. Items =
// explorer iterations, so items/s is directly comparable across rows: on a
// host with ≥ Γ cores the parallel rows approach Γ× the serial Γ=1 rate.
void BM_SeAdvanceBlock(benchmark::State& state) {
  const auto instance = make_instance(200);
  mvcom::core::SeParams params;
  params.threads = static_cast<std::size_t>(state.range(0));
  std::optional<mvcom::common::ThreadPool> pool;
  if (state.range(1) != 0) pool.emplace(params.threads - 1);
  mvcom::core::SeScheduler scheduler(instance, params, 3,
                                     pool ? &*pool : nullptr);
  constexpr std::size_t kBlock = 100;
  for (auto _ : state) {
    scheduler.advance(kBlock);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlock) * state.range(0));
}
BENCHMARK(BM_SeAdvanceBlock)
    ->ArgNames({"gamma", "parallel"})
    ->Args({1, 0})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->UseRealTime();

void BM_SwapSetSwap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mvcom::core::Selection x(n, 0);
  for (std::size_t i = 0; i < n / 2; ++i) x[i] = 1;
  mvcom::core::SwapSet set(x);
  Rng rng(5);
  for (auto _ : state) {
    const auto p = set.sample_selected_position(rng);
    const auto q = set.sample_unselected_position(rng);
    set.swap_positions(p, q);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_SwapSetSwap)->Arg(100)->Arg(1000)->Arg(50000);

void BM_Sha256(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(mvcom::crypto::Sha256::hash(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_PbftInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto payload = mvcom::crypto::Sha256::hash("p");
  for (auto _ : state) {
    mvcom::sim::Simulator simulator;
    mvcom::net::Network network(
        simulator, Rng(7),
        std::make_shared<mvcom::net::UniformLatency>(SimTime(0.5),
                                                     SimTime(1.5)),
        n);
    std::vector<mvcom::net::NodeId> members(n);
    for (std::size_t i = 0; i < n; ++i) {
      members[i] = static_cast<mvcom::net::NodeId>(i);
    }
    mvcom::consensus::PbftCluster cluster(simulator, network, {}, Rng(8),
                                          members);
    benchmark::DoNotOptimize(cluster.run_consensus(payload));
  }
}
BENCHMARK(BM_PbftInstance)->Arg(4)->Arg(16)->Arg(32);

// One-nonce digest rate through PowMidstate::digest (the nonce formatted
// into a copy of the padded tail block, then one compression from the
// cached chaining state) vs re-absorbing the whole preimage each attempt.
// solve()'s grind is faster still — digits incremented in place, no digest
// but the winner's — and run_pow_rate below measures that.
void BM_PowGrindMidstate(benchmark::State& state) {
  const mvcom::crypto::PowMidstate midstate("bench-epoch-randomness",
                                            "node-12345");
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(midstate.digest(nonce++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PowGrindMidstate);

void BM_PowGrindFromScratch(benchmark::State& state) {
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mvcom::crypto::Sha256::hash(
        std::string("bench-epoch-randomness") + "|node-12345|" +
        std::to_string(nonce++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PowGrindFromScratch);

// DES kernel churn: schedule + fire through the slab/4-ary-heap engine at a
// live queue depth typical of a large committee fabric.
void BM_SimulatorChurn(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  mvcom::sim::Simulator sim;
  Rng rng(11);
  double horizon = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(SimTime(rng.uniform(0.0, 100.0)), [] {});
  }
  for (auto _ : state) {
    // Fire one event, schedule one replacement: steady-state queue depth.
    sim.run(1);
    horizon = sim.now().seconds() + rng.uniform(0.0, 100.0);
    sim.schedule_at(SimTime(horizon), [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorChurn)->Arg(64)->Arg(4096)->Arg(65536);

// Cohort dispatch: typed-event churn through the cohort executor, `range(0)`
// events per timestamp so every pop drains one cohort. The counterpart of
// BM_SimulatorChurn for the kernel path (DESIGN.md §16).
void BM_CohortDispatch(benchmark::State& state) {
  const auto cohort = static_cast<std::size_t>(state.range(0));
  mvcom::sim::Simulator sim;
  static std::uint64_t sink = 0;
  const auto kernel = sim.register_kernel(
      [](void*, const mvcom::sim::TypedPayload* c, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) sink += c[i].a;
      },
      nullptr);
  double at = 1.0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < cohort; ++i) {
      sim.schedule_typed(SimTime(at), kernel, {i, 0});
    }
    state.ResumeTiming();
    sim.run();
    at += 1.0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cohort));
}
BENCHMARK(BM_CohortDispatch)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

// Batched exponential sampling — the SIMD-friendly transform behind the
// PBFT verification delays and the Eq.-(8) timer race.
void BM_FillExponential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> out(n);
  for (auto _ : state) {
    rng.fill_exponential(std::span<double>(out), 0.2);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FillExponential)->Arg(4)->Arg(64)->Arg(1024);

void BM_DpSolve(benchmark::State& state) {
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
  mvcom::baselines::DynamicProgramming dp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.solve(instance));
  }
}
BENCHMARK(BM_DpSolve)->Arg(50)->Arg(500);

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
/// the cached chaining state, the decimal nonce incremented in place, two
/// nonces hashed side by side), measured by grinding a fixed attempt count
/// against an unsolvable target (leading64_below = 0 never matches, so
/// solve() always performs exactly kAttempts hashes).
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
  std::printf("\n--- PoW grind rate (solve kernel) ---\n");
  std::printf("  %llu attempts in %.3fs -> %.0f hashes/s%s\n",
              static_cast<unsigned long long>(kAttempts), seconds, rate,
              solution.has_value() ? " (unexpected solution!)" : "");
  json.set("pow_grind_attempts", static_cast<double>(kAttempts));
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

/// Typed-event throughput through the cohort executor: steady-state
/// same-timestamp storms (cohort size 64) where every executed element
/// schedules its replacement one tick later — constant queue depth, so the
/// measurement is dispatch cost, not heap depth.
void run_cohort_dispatch(mvcom::bench::BenchJson& json) {
  constexpr std::size_t kCohort = 64;
  constexpr std::uint64_t kEvents = 1'000'000;
  struct Ctx {
    mvcom::sim::Simulator sim;
    mvcom::sim::KernelId kernel{};
    std::uint64_t sink = 0;
  } ctx;
  ctx.kernel = ctx.sim.register_kernel(
      [](void* raw, const mvcom::sim::TypedPayload* c, std::size_t n) {
        auto* self = static_cast<Ctx*>(raw);
        const SimTime next = self->sim.now() + SimTime(1.0);
        for (std::size_t i = 0; i < n; ++i) {
          self->sink += c[i].a;
          self->sim.schedule_typed(next, self->kernel, c[i]);
        }
      },
      &ctx);
  for (std::size_t i = 0; i < kCohort; ++i) {
    ctx.sim.schedule_typed(SimTime(1.0), ctx.kernel, {i, 0});
  }
  ctx.sim.run(kCohort * 16);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t fired = ctx.sim.run(kEvents);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(ctx.sink);
  const double rate = static_cast<double>(fired) / seconds;
  std::printf("\n--- cohort dispatch (size %zu storms) ---\n", kCohort);
  std::printf("  %.0f events/s\n", rate);
  json.set("sim_cohort_size", static_cast<double>(kCohort));
  json.set("gate_rate_sim_cohort_dispatch", rate);
}

/// Batched exponential sampling rate — fill_exponential over a 1024-draw
/// buffer, the shape the PBFT verification-delay kernel uses.
void run_fill_exponential(mvcom::bench::BenchJson& json) {
  constexpr std::size_t kBatch = 1024;
  constexpr std::size_t kReps = 20'000;
  Rng rng(7);
  std::vector<double> out(kBatch);
  double sink = 0.0;
  for (std::size_t r = 0; r < kReps / 10; ++r) {  // warm-up
    rng.fill_exponential(std::span<double>(out), 0.2);
    sink += out.back();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kReps; ++r) {
    rng.fill_exponential(std::span<double>(out), 0.2);
    sink += out.back();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(sink);
  const double rate = static_cast<double>(kBatch * kReps) / seconds;
  std::printf("\n--- fill_exponential (batch %zu) ---\n", kBatch);
  std::printf("  %.0f draws/s (%.2f ns/draw)\n", rate, 1e9 / rate);
  json.set("rng_fill_batch", static_cast<double>(kBatch));
  json.set("gate_rate_rng_fill_exponential", rate);
}

/// SE timer-race step rate — the Alg.-3 transition whose inner loop is the
/// batched Exp(1) race. Its own gate tier (gate_rate_se_steps): the
/// chain-parallel tiers above cannot see a regression in this path.
void run_se_timer_race(mvcom::bench::BenchJson& json) {
  const auto instance = make_instance(200);
  mvcom::core::SeParams params;
  params.threads = 1;
  params.transition = mvcom::core::SeTransition::kTimerRace;
  constexpr std::size_t kIters = 30'000;
  params.max_iterations = kIters * 2;
  params.convergence_window = params.max_iterations;
  mvcom::core::SeScheduler scheduler(instance, params, 3);
  scheduler.advance(kIters / 10);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  scheduler.advance(kIters);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double rate = static_cast<double>(kIters) / seconds;
  std::printf("\n--- SE timer-race step rate (|I|=200) ---\n");
  std::printf("  %.0f steps/s\n", rate);
  json.set("se_timer_race_iters", static_cast<double>(kIters));
  json.set("gate_rate_se_steps", rate);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mvcom::bench::BenchJson json("perf_microbench");
  run_overhead_guard(json);
  run_scale_throughput(json);
  run_pow_rate(json);
  run_event_churn(json);
  run_cohort_dispatch(json);
  run_fill_exponential(json);
  run_se_timer_race(json);
  json.write();
  return 0;
}
