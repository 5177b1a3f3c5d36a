// Ablation — the deadline-policy knob the paper leaves open (§III-A: "this
// paper is not trying to tell how to set such the DDL ... when the
// transaction capacity of the final block is limited, such DDL should be
// shorten as much as possible").
//
// Sweep the percentile deadline q from 0.5 to 1.0 (q = 1.0 is the paper's
// default t = max latency; q = 0.8 is the N_max rule) and report, per q:
// the deadline itself, how many committees straggle past it, the SE
// utility, the permitted TXs, and the cumulative age — the whole tradeoff
// surface.

#include <cstdio>

#include "bench_util.hpp"
#include "mvcom/ddl_policy.hpp"
#include "mvcom/se_scheduler.hpp"
#include "txn/workload.hpp"

int main() {
  const auto trace = mvcom::bench::paper_trace();
  // Build raw reports at the Fig. 9(a) scale: |I|=50, Ĉ=40K, α=1.5.
  mvcom::common::Rng rng(21);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 50;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  const auto workload = gen.epoch(rng);

  mvcom::bench::print_header(
      "Ablation", "DDL percentile sweep (|I|=50, C=40K, a=1.5, N_min=40%)");
  std::printf("  %6s %12s %12s %14s %12s %14s\n", "q", "DDL(s)",
              "stragglers", "SE utility", "TXs packed", "cum. age(s)");

  for (const double q : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    const mvcom::core::PercentileDdl policy(q);
    const auto admission = policy.admit(workload.reports);
    const auto instance = mvcom::core::make_instance_with_ddl(
        workload.reports, policy, /*alpha=*/1.5, /*capacity=*/40'000,
        /*n_min=*/admission.admitted.size() * 2 / 5);
    mvcom::core::SeParams params;
    params.threads = 10;
    params.max_iterations = 2500;
    mvcom::core::SeScheduler scheduler(instance, params, 31);
    const auto result = scheduler.run();
    if (!result.feasible) {
      std::printf("  %6.2f %12.1f %12zu %14s\n", q, admission.deadline,
                  admission.stragglers, "(infeasible)");
      continue;
    }
    std::printf("  %6.2f %12.1f %12zu %14.1f %12llu %14.1f\n", q,
                admission.deadline, admission.stragglers, result.utility,
                static_cast<unsigned long long>(
                    instance.permitted_txs(result.best)),
                instance.cumulative_age(result.best));
  }
  std::printf(
      "  (expected shape: tighter deadlines trade TXs for freshness — the\n"
      "   cumulative age collapses long before the packed TXs do; around\n"
      "   q=0.8 the block loses little throughput but most of its age)\n");
  return 0;
}
