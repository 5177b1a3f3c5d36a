// Fig. 8 — convergence of the SE algorithm under different numbers of
// distributed parallel execution threads Γ ∈ {1, 5, 10, 25}, with
// |I_j| = 500, Ĉ = 500K, α = 1.5. Expected shape: larger Γ converges faster
// and to a (weakly) higher utility, saturating around Γ ≈ 10.
//
// Beyond the per-iteration shape, this bench times the real threading model:
// each Γ point runs the serial reference and the parallel path on a lent
// pool of Γ − 1 workers (the caller is the Γ-th context), reports wall-clock
// iterations/sec and chain throughput (explorer-iterations/sec = Γ ·
// iterations/sec), and the parallel speedup at each Γ relative to Γ = 1. On
// a host with ≥ Γ cores the speedup approaches Γ (explorers advance
// concurrently between §IV-D share barriers); on a single core it stays ≈ 1.
// The utility traces of the two paths are bitwise identical by construction
// — the bench verifies that too and exits 1 when they diverge.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "mvcom/se_scheduler.hpp"

namespace {

struct TimedRun {
  mvcom::core::SeResult result;
  double seconds = 0.0;
};

TimedRun timed_run(const mvcom::core::EpochInstance& instance,
                   const mvcom::core::SeParams& params,
                   mvcom::common::ThreadPool* pool) {
  mvcom::core::SeScheduler scheduler(instance, params, 42, pool);
  const auto start = std::chrono::steady_clock::now();
  TimedRun run;
  run.result = scheduler.run();
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

}  // namespace

int main() {
  const auto trace = mvcom::bench::paper_trace();
  const auto instance = mvcom::bench::paper_instance(
      trace, /*epoch_seed=*/1, /*num_committees=*/500, /*capacity=*/500'000,
      /*alpha=*/1.5, /*n_min=*/0);

  mvcom::bench::print_header(
      "Fig. 8", "SE convergence vs parallel threads (|I|=500, C=500K, a=1.5)");
  std::printf("  beta=2, tau=0 (paper defaults); utility trace per Γ\n");
  std::printf("  hardware threads available: %u\n",
              std::thread::hardware_concurrency());

  double baseline_chain_rate = 0.0;  // explorer-iterations/sec at Γ=1
  bool diverged = false;
  for (const std::size_t gamma : {1u, 5u, 10u, 25u}) {
    mvcom::core::SeParams params;
    params.threads = gamma;
    params.max_iterations = 3000;
    params.convergence_window = params.max_iterations;  // fixed budget
    const TimedRun serial = timed_run(instance, params, nullptr);
    mvcom::common::ThreadPool pool(gamma - 1);
    const TimedRun parallel = timed_run(instance, params, &pool);

    mvcom::bench::print_trace("Gamma=" + std::to_string(gamma),
                              parallel.result.utility_trace, 12);
    mvcom::bench::print_row("  converged utility (Gamma=" +
                                std::to_string(gamma) + ")",
                            parallel.result.utility);

    // Determinism contract: the pool-backed path must reproduce the serial
    // trace exactly — parallelism changes wall-clock, never results. A NaN
    // on one side only counts as infinite divergence.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double max_divergence = 0.0;
    const auto& a = serial.result.utility_trace;
    const auto& b = parallel.result.utility_trace;
    if (a.size() != b.size()) {
      max_divergence = kInf;
    } else {
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i])) continue;
        const double d = std::fabs(a[i] - b[i]);
        max_divergence = std::isnan(d) ? kInf : std::max(max_divergence, d);
      }
    }
    mvcom::bench::print_row("  serial-vs-parallel trace divergence",
                            max_divergence);
    if (max_divergence != 0.0) {
      std::printf("  determinism: trace DIVERGED at Gamma=%zu (FAIL)\n",
                  gamma);
      diverged = true;
    }

    const double iters = static_cast<double>(parallel.result.iterations);
    const double iter_rate = iters / parallel.seconds;
    const double chain_rate = static_cast<double>(gamma) * iter_rate;
    if (gamma == 1) baseline_chain_rate = chain_rate;
    std::printf(
        "  Gamma=%zu: serial %.3fs, parallel %.3fs | %.0f iters/s, "
        "%.0f explorer-iters/s, speedup vs Gamma=1: %.2fx\n",
        gamma, serial.seconds, parallel.seconds, iter_rate, chain_rate,
        chain_rate / baseline_chain_rate);

    // A Γ-thread pool can only beat the serial path on a host with Γ
    // cores; with fewer, the ratio measures pool handoff overhead. Γ = 1
    // has nothing to overlap.
    const double pool_speedup = serial.seconds / parallel.seconds;
    if (gamma > 1) {
      std::printf("  pool speedup at Gamma=%zu (serial / parallel): %.2fx\n",
                  gamma, pool_speedup);
    }
  }
  std::printf("  (expected shape: higher Γ converges faster/higher; benefit "
              "saturates near Γ=10; explorer-iters/s scales with min(Γ, "
              "cores) when parallel execution is on)\n");

  // --- Scale tiers: one fixed-budget epoch at 10k (and, under
  // MVCOM_BENCH_SCALE=full, 50k) committees. The 10k tier keeps the default
  // full-fidelity family cap; 50k uses a 256-chain family — at that size the
  // cardinality grid is what makes the epoch interactive (see DESIGN.md
  // §11).
  mvcom::bench::print_header(
      "Scale tier", "single-epoch wall clock at 10k-50k committees");
  std::vector<std::size_t> tiers = {10'000};
  if (mvcom::bench::scale_full_enabled()) tiers.push_back(50'000);
  for (const std::size_t icount : tiers) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto scale = mvcom::bench::scale_instance(icount);
    const auto t1 = std::chrono::steady_clock::now();
    mvcom::core::SeParams params;
    params.threads = 4;
    params.max_iterations = 400;
    params.convergence_window = params.max_iterations;  // fixed budget
    if (icount > 10'000) params.max_family = 256;
    mvcom::core::SeScheduler scheduler(scale, params, 42);
    const auto t2 = std::chrono::steady_clock::now();
    const auto result = scheduler.run();
    const auto t3 = std::chrono::steady_clock::now();
    const auto secs = [](auto a, auto b) {
      return std::chrono::duration<double>(b - a).count();
    };
    const double epoch_seconds = secs(t1, t3);
    const double iter_rate =
        static_cast<double>(result.iterations) / secs(t2, t3);
    std::printf(
        "  I=%zu: instance %.3fs, scheduler ctor %.3fs, run %.3fs "
        "(epoch %.3fs, %.0f iters/s), utility %.1f, feasible=%d\n",
        icount, secs(t0, t1), secs(t1, t2), secs(t2, t3), epoch_seconds,
        iter_rate, result.utility, result.feasible ? 1 : 0);
  }

  return diverged ? 1 : 0;
}
