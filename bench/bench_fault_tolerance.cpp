// Fault-tolerance bench — the EpochSupervisor under a scripted FaultPlan on
// the paper's calibrated workload (§VI-A parameters: |I| committees,
// Ĉ = 1000·|I|, α = 1.5, N_min = 50%·|I|). One of every fault kind strikes
// a distinct committee:
//   * crash            — node dies before its submission can be sent
//   * crash-recover    — node dies after admission and returns; the
//                        heartbeat monitor re-admits it automatically
//   * straggler        — node slows down; its submission arrives late
//   * misreport        — claimed s_i inflated 3×; verified admission must
//                        quarantine it (the inflated value never enters the
//                        instance)
//   * equivocate       — a second verification-passing submission binding a
//                        different s_i after honest admission
//   * loss burst       — 50% message loss for a while; the K-missed-pings
//                        tolerance must ride it out or recover after
// The bench prints the utility timeline across the epoch, the per-failure
// Theorem-2 accounting (observed dip vs bound), the admission/detector
// statistics, and PASS/FAIL rows for the issue's acceptance criteria.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "mvcom/fault_injection.hpp"
#include "txn/workload.hpp"

namespace {

using mvcom::bench::print_pass;
using mvcom::core::ChaosCommittee;
using mvcom::core::ChaosConfig;
using mvcom::core::ChaosReport;
using mvcom::core::FaultKind;
using mvcom::core::FaultPlan;

}  // namespace

int main() {
  const std::size_t kCommittees = 20;
  const auto trace = mvcom::bench::paper_trace();
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = kCommittees;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  mvcom::common::Rng rng(41);
  const auto workload = gen.epoch(rng);
  const auto committees =
      mvcom::core::chaos_committees_from_reports(workload.reports);

  ChaosConfig config;
  config.supervisor.scheduler.alpha = 1.5;
  config.supervisor.scheduler.capacity = 1000 * kCommittees;
  config.supervisor.scheduler.expected_committees = kCommittees;
  config.ddl_seconds = 1800.0;

  const auto id_of = [&](std::size_t i) {
    return committees[i].submission.committee_id;
  };
  const auto delivered_at = [&](std::size_t i) {
    return committees[i].formation_latency + committees[i].consensus_latency;
  };

  FaultPlan plan;
  // Misreport before delivery: the lie is the committee's only submission.
  plan.events.push_back({FaultKind::kMisreport, id_of(3), 10.0, 0.0, 3.0});
  // Crash before delivery: the submission is dropped at send time.
  plan.events.push_back({FaultKind::kCrash, id_of(5), 200.0, 0.0, 1.0});
  // Straggler from early on: ×6 slowdown, submission pushed back 120 s.
  plan.events.push_back(
      {FaultKind::kStragglerDelay, id_of(11), 300.0, 120.0, 6.0});
  // Loss burst mid-epoch: 50% loss for 120 s.
  plan.events.push_back(
      {FaultKind::kMessageLossBurst, 0, 600.0, 120.0, 0.5});
  // Crash-recover after this committee's delivery; 250 s downtime.
  plan.events.push_back({FaultKind::kCrashRecover, id_of(8),
                         delivered_at(8) + 60.0, 250.0, 1.0});
  // Equivocation after this committee's honest admission.
  plan.events.push_back({FaultKind::kEquivocate, id_of(14),
                         delivered_at(14) + 30.0, 0.0, 2.0});
  std::sort(plan.events.begin(), plan.events.end(),
            [](const auto& a, const auto& b) {
              return a.at_seconds < b.at_seconds;
            });

  const ChaosReport report =
      mvcom::core::run_chaos_epoch(committees, plan, config, 2021);

  mvcom::bench::print_header(
      "Fault tolerance",
      "supervised epoch under one of each fault kind (|I|=20, C=20K, a=1.5)");

  std::printf("  fault plan:\n");
  for (const auto& e : plan.events) {
    std::printf("    t=%7.1fs  %-18s committee %2u  (duration %.0fs, x%.1f)\n",
                e.at_seconds, mvcom::core::to_string(e.kind), e.committee_id,
                e.duration_seconds, e.magnitude);
  }

  std::vector<double> utility;
  utility.reserve(report.timeline.size());
  for (const auto& p : report.timeline) utility.push_back(p.utility);
  mvcom::bench::print_trace("utility over the epoch", utility, 24);

  std::printf("  admission: %llu admitted, %llu readmitted, %llu quarantine "
              "events, %llu refused, %llu dropped sends\n",
              static_cast<unsigned long long>(report.admitted),
              static_cast<unsigned long long>(report.readmitted),
              static_cast<unsigned long long>(report.quarantine_events),
              static_cast<unsigned long long>(report.refused),
              static_cast<unsigned long long>(report.dropped_submissions));
  std::printf("  detector: %llu failures, %llu recoveries\n",
              static_cast<unsigned long long>(report.failures_detected),
              static_cast<unsigned long long>(report.recoveries_detected));

  if (!report.failures.empty()) {
    std::printf("  Theorem-2 accounting per failure (dip vs bound):\n");
    for (const auto& f : report.failures) {
      std::printf("    t=%7.1fs  committee %2u  U %9.1f -> %9.1f  dip %8.1f"
                  "  bound %9.1f  %s\n",
                  f.sim_time_seconds, f.committee_id, f.utility_before,
                  f.utility_after,
                  std::abs(f.utility_before - f.utility_after),
                  f.perturbation_bound, f.within_bound ? "ok" : "VIOLATED");
    }
  }

  const auto& final_d = report.final_decision;
  mvcom::bench::print_row("final tier",
                          std::string(mvcom::core::to_string(final_d.tier)));
  mvcom::bench::print_row("final utility", final_d.decision.utility);
  mvcom::bench::print_row(
      "permitted committees",
      static_cast<double>(final_d.decision.permitted_ids.size()));
  mvcom::bench::print_row(
      "permitted TXs", static_cast<double>(final_d.decision.permitted_txs));

  // The issue's acceptance criteria.
  bool misreporter_contained = true;
  for (const std::uint32_t id : final_d.decision.permitted_ids) {
    if (id == id_of(3)) misreporter_contained = false;
  }
  const bool quarantine_fired = report.quarantine_events >= 2;  // lie + equiv
  std::printf("  acceptance criteria:\n");
  print_pass("never infeasible while a feasible selection exists",
             !report.infeasible_while_feasible);
  print_pass("misreporter quarantined; inflated s_i never admitted",
             quarantine_fired && misreporter_contained);
  print_pass("post-failure utility dips respect the Theorem-2 bound",
             final_d.theorem2_respected);
  print_pass("epoch still decides (feasible at the DDL)",
             final_d.decision.feasible);

  const bool all_ok = !report.infeasible_while_feasible &&
                      quarantine_fired && misreporter_contained &&
                      final_d.theorem2_respected && final_d.decision.feasible;
  return all_ok ? 0 : 1;
}
