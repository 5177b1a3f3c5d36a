// Baseline comparison — every solver in the repository on one paper-scale
// epoch: SE (the paper's algorithm), SA, DP (throughput variant — the
// paper's baseline), DP-U (utility-exact knapsack, an upper reference),
// WOA, Greedy, and — because the instance is kept small enough — the
// Exhaustive ground truth.
//
// Run: ./build/examples/baseline_comparison

#include <cstdio>

#include "baselines/dynamic_programming.hpp"
#include "baselines/exhaustive.hpp"
#include "baselines/greedy.hpp"
#include "baselines/simulated_annealing.hpp"
#include "baselines/whale_optimization.hpp"
#include "common/rng.hpp"
#include "mvcom/se_scheduler.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace {

void report(const char* name, bool feasible, double utility, double degree,
            std::size_t chosen) {
  if (feasible) {
    std::printf("  %-12s utility %10.1f   valuable degree %8.2f   "
                "committees %zu\n", name, utility, degree, chosen);
  } else {
    std::printf("  %-12s (infeasible)\n", name);
  }
}

}  // namespace

int main() {
  mvcom::common::Rng rng(5);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 64;
  tc.target_total_txs = 64'000;
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 20;  // small enough for exhaustive ground truth
  const mvcom::txn::WorkloadGenerator gen(
      mvcom::txn::generate_trace(tc, rng), wc);
  const auto workload = gen.epoch(rng);
  const auto instance = mvcom::core::EpochInstance::from_reports(
      workload.reports, /*alpha=*/1.5,
      /*capacity=*/(workload.total_txs() * 7) / 10, /*n_min=*/8);

  std::printf("instance: |I|=%zu, capacity %llu of %llu total TXs, "
              "N_min=%zu, deadline %.0f s\n\n",
              instance.size(),
              static_cast<unsigned long long>(instance.capacity()),
              static_cast<unsigned long long>(workload.total_txs()),
              instance.n_min(), instance.deadline());

  // SE — the paper's scheduler.
  mvcom::core::SeParams params;
  params.threads = 8;
  params.max_iterations = 6000;
  mvcom::core::SeScheduler se(instance, params, 1);
  const auto se_result = se.run();
  report("SE", se_result.feasible, se_result.utility,
         se_result.valuable_degree,
         se_result.feasible ? instance.stats(se_result.best).chosen : 0);

  auto run = [&](mvcom::baselines::Solver& solver) {
    const auto r = solver.solve(instance);
    report(std::string(solver.name()).c_str(), r.feasible, r.utility,
           r.valuable_degree,
           r.feasible ? instance.stats(r.best).chosen : 0);
  };

  mvcom::baselines::SimulatedAnnealing sa({}, 1);
  run(sa);
  mvcom::baselines::DynamicProgramming dp;  // throughput (the paper's DP)
  run(dp);
  mvcom::baselines::DpParams up;
  up.objective = mvcom::baselines::DpObjective::kUtility;
  mvcom::baselines::DynamicProgramming dpu(up);
  run(dpu);
  mvcom::baselines::WhaleOptimization woa(1);
  run(woa);
  mvcom::baselines::Greedy greedy;
  run(greedy);
  mvcom::baselines::Exhaustive exact;
  run(exact);

  std::printf("\n(Exhaustive is the true optimum; SE should sit within a "
              "few percent of it, DP/WOA below — the paper's ordering.)\n");
  return 0;
}
