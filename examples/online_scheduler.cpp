// Online scheduler walkthrough — the full Fig. 5 interaction loop driven by
// the discrete-event simulator: member committees finish at their two-phase
// latencies and their submissions *arrive as events*; the final committee's
// EpochSupervisor admits them into the wrapped OnlineCommitteeScheduler,
// which bootstraps once scheduling becomes worthwhile (Alg. 1 line 1),
// explores between arrivals, absorbs a mid-epoch failure and stops
// listening at N_max (line 29). The supervisor's ladder issues the final
// decision, the same path `mvcom chaos` runs.
//
// Run: ./build/examples/online_scheduler

#include <cstdio>

#include "common/rng.hpp"
#include "mvcom/fault_injection.hpp"
#include "mvcom/supervisor.hpp"
#include "sim/simulator.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

int main() {
  using mvcom::common::SimTime;

  // One epoch's workload: 40 committees, shards of ~one trace block.
  mvcom::common::Rng rng(23);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 128;
  tc.target_total_txs = 128'000;
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 40;
  const mvcom::txn::WorkloadGenerator gen(
      mvcom::txn::generate_trace(tc, rng), wc);
  const auto workload = gen.epoch(rng);
  const auto committees =
      mvcom::core::chaos_committees_from_reports(workload.reports);

  mvcom::core::SupervisorConfig config;
  config.scheduler.alpha = 1.5;
  config.scheduler.capacity = 30'000;
  config.scheduler.expected_committees = 40;
  config.scheduler.se.threads = 4;
  mvcom::core::EpochSupervisor supervisor(config, 7);

  // Each committee's submission arrives at its two-phase latency instant.
  mvcom::sim::Simulator simulator;
  for (const auto& c : committees) {
    simulator.schedule_at(
        SimTime(c.formation_latency + c.consensus_latency), [&, c] {
          const auto admission = supervisor.on_submission(
              c.submission, c.formation_latency, c.consensus_latency);
          std::printf("t=%7.1fs  committee %2u arrives (s=%llu)%s\n",
                      simulator.now().seconds(), c.submission.committee_id,
                      static_cast<unsigned long long>(
                          c.submission.claimed_tx_count),
                      admission == mvcom::core::Admission::kAdmitted
                          ? ""
                          : "  [refused: N_max reached]");
          supervisor.explore(100);
        });
  }

  // Mid-epoch DoS: the first committee to arrive fails at t = 700 s and is
  // detected by an infinite ping (§V-A), then recovers at t = 850 s.
  std::uint32_t victim = 0;
  {
    double best = 1e300;
    for (const auto& r : workload.reports) {
      if (r.two_phase_latency() < best) {
        best = r.two_phase_latency();
        victim = r.committee_id;
      }
    }
  }
  simulator.schedule_at(SimTime(700.0), [&] {
    std::printf("t=  700.0s  committee %u FAILS (ping -> infinity)\n", victim);
    supervisor.on_failure(victim);
  });
  simulator.schedule_at(SimTime(850.0), [&] {
    std::printf("t=  850.0s  committee %u recovers and re-submits\n", victim);
    supervisor.on_recovery(victim);
  });

  simulator.run();
  supervisor.explore(2000);  // final polish before the DDL

  const auto supervised = supervisor.decide();
  const auto& decision = supervised.decision;
  const auto& scheduler = supervisor.scheduler();
  std::printf("\narrived %zu committees; bootstrapped=%s; listening=%s\n",
              scheduler.arrived(), scheduler.bootstrapped() ? "yes" : "no",
              scheduler.listening() ? "yes" : "no");
  if (!decision.feasible) {
    std::printf("no feasible selection (%s)\n",
                mvcom::core::to_string(supervised.reason));
    return 1;
  }
  std::printf("decision [%s]: %zu committees, %llu TXs (capacity %llu), "
              "utility %.1f, valuable degree %.2f\n",
              mvcom::core::to_string(supervised.tier),
              decision.permitted_ids.size(),
              static_cast<unsigned long long>(decision.permitted_txs),
              static_cast<unsigned long long>(config.scheduler.capacity),
              decision.utility, decision.valuable_degree);
  return 0;
}
