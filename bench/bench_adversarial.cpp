// Adversarial degradation bench — multi-epoch campaigns of every Adversary
// strategy against the EpochSupervisor, with the risk-adaptive committee
// sizing defense on and off. The headline experiment sweeps the attack
// budget for targeted corruption (the Blockguard threat model: corrupt the
// most valuable realized picks, file verification-passing forged
// submissions) and plots the degradation curves of honest permitted
// throughput and safety for both arms.
//
// PASS/FAIL criteria (the process exits 1 on FAIL):
//   * dominance — summed over the budget sweep, the risk-adaptive arm
//     strictly beats the static-N_min arm on BOTH honest permitted TXs and
//     mean safety at equal attack budget. (Per-budget rows are printed for
//     the curve; low budgets are near parity by design — there is little
//     detectable signal to adapt on — so the verdict is on the sweep
//     aggregate.)
//   * never infeasible-while-feasible — across every campaign of every
//     strategy, the degradation ladder never reported infeasible while a
//     feasible selection existed on the live reports.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "mvcom/adversary/campaign.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::bench::print_pass;
using mvcom::core::AdversaryStrategy;
using mvcom::core::CampaignConfig;
using mvcom::core::CampaignResult;
using mvcom::core::run_adversarial_campaign;

constexpr std::size_t kCommittees = 20;
constexpr std::size_t kEpochs = 5;
constexpr std::uint64_t kSeed = 7;

/// Mirrors `mvcom chaos --adversary` defaults (tools/mvcom_cli.cpp), so the
/// bench numbers are reproducible from the CLI.
CampaignConfig campaign_config(AdversaryStrategy strategy, double budget,
                               bool risk_adaptive) {
  CampaignConfig config;
  config.adversary.strategy = strategy;
  config.adversary.budget = budget;
  config.committees = kCommittees;
  config.epochs = kEpochs;
  config.reserve =
      strategy == AdversaryStrategy::kChurnStorm ? kCommittees : 0;
  auto& sched = config.chaos.supervisor.scheduler;
  sched.alpha = 1.5;
  sched.capacity = 725 * kCommittees;
  sched.expected_committees = kCommittees + config.reserve;
  sched.n_max_fraction = 1.0;
  if (config.reserve > 0) {
    sched.n_min_fraction = 0.5 * static_cast<double>(kCommittees) /
                           static_cast<double>(kCommittees + config.reserve);
  }
  config.chaos.supervisor.risk.enabled = risk_adaptive;
  config.chaos.supervisor.risk.escalation_step = 1.2;
  config.chaos.supervisor.risk.boost_cap = 8;
  return config;
}

std::uint64_t honest_txs(const CampaignResult& result) {
  std::uint64_t total = 0;
  for (const auto& epoch : result.epochs) total += epoch.honest_permitted_txs;
  return total;
}

}  // namespace

int main() {
  mvcom::bench::print_header(
      "Adversarial degradation",
      "targeted corruption budget sweep, risk-adaptive vs static N_min");

  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 64;
  tc.target_total_txs = 64'000;
  mvcom::common::Rng trace_rng(kSeed + 1);
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);

  const std::vector<double> budgets = {0.15, 0.25, 0.35, 0.5};
  std::vector<double> adaptive_honest, static_honest;
  std::vector<double> adaptive_safety, static_safety;
  bool infeasible_while_feasible = false;

  const auto bench_start = std::chrono::steady_clock::now();
  std::printf("targeted corruption, %zu committees x %zu epochs, seed %llu\n",
              kCommittees, kEpochs, static_cast<unsigned long long>(kSeed));
  std::printf("  %-8s %-9s %14s %14s %10s %10s\n", "budget", "arm",
              "honest TXs", "utility", "safety", "n_min@end");
  for (const double budget : budgets) {
    for (const bool adaptive : {true, false}) {
      const auto config = campaign_config(
          AdversaryStrategy::kTargetedCorruption, budget, adaptive);
      const CampaignResult result =
          run_adversarial_campaign(trace, config, kSeed);
      infeasible_while_feasible |= result.infeasible_while_feasible;
      const double honest = static_cast<double>(honest_txs(result));
      const std::size_t n_min_end =
          result.epochs.empty() ? 0
                                : result.epochs.back().report.effective_n_min;
      std::printf("  %-8.2f %-9s %14.0f %14.1f %10.3f %10zu\n", budget,
                  adaptive ? "adaptive" : "static", honest,
                  result.mean_utility, result.mean_safety, n_min_end);
      (adaptive ? adaptive_honest : static_honest).push_back(honest);
      (adaptive ? adaptive_safety : static_safety)
          .push_back(result.mean_safety);
    }
  }

  // The remaining strategies, adaptive arm, canonical budget: their
  // campaigns feed the never-infeasible criterion.
  std::printf("other strategies (adaptive arm, budget 0.35):\n");
  for (const AdversaryStrategy strategy :
       {AdversaryStrategy::kColludingMisreport, AdversaryStrategy::kAdaptiveDos,
        AdversaryStrategy::kChurnStorm}) {
    const auto config = campaign_config(strategy, 0.35, true);
    const CampaignResult result =
        run_adversarial_campaign(trace, config, kSeed);
    infeasible_while_feasible |= result.infeasible_while_feasible;
    std::printf("  %-20s honest %10llu TXs  utility %10.1f  safety %6.3f\n",
                mvcom::core::to_string(strategy),
                static_cast<unsigned long long>(honest_txs(result)),
                result.mean_utility, result.mean_safety);
  }
  const double campaign_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  double adaptive_total = 0, static_total = 0;
  double adaptive_safety_sum = 0, static_safety_sum = 0;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    adaptive_total += adaptive_honest[i];
    static_total += static_honest[i];
    adaptive_safety_sum += adaptive_safety[i];
    static_safety_sum += static_safety[i];
  }

  const bool dominates = adaptive_total > static_total &&
                         adaptive_safety_sum > static_safety_sum;
  std::printf("sweep aggregate: adaptive %0.f vs static %0.f honest TXs, "
              "safety %.3f vs %.3f\n",
              adaptive_total, static_total,
              adaptive_safety_sum / static_cast<double>(budgets.size()),
              static_safety_sum / static_cast<double>(budgets.size()));
  print_pass("risk-adaptive strictly dominates static N_min "
             "(honest TXs AND safety over the budget sweep)",
             dominates);
  print_pass("ladder never infeasible while a feasible selection exists",
             !infeasible_while_feasible);
  mvcom::bench::print_row("campaign seconds", campaign_seconds);

  return dominates && !infeasible_while_feasible ? 0 : 1;
}
