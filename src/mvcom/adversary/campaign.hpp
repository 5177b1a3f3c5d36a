#pragma once
// Multi-epoch adversarial campaign: the closed loop of adversary vs.
// supervisor. Each epoch the Adversary plans faults from what it observed
// of the previous epoch, the chaos harness runs the supervised epoch on the
// DES, and the supervisor's cross-epoch carry (strikes, bans, decayed risk)
// feeds its next instantiation — so both sides adapt across the campaign.
//
// Per epoch the campaign scores:
//  * utility  — the final supervised decision's U(x);
//  * safety   — honest permitted TXs / claimed permitted TXs: a permitted
//    committee whose admitted claim differs from its honest workload count
//    contributes zero honest TXs (its shard is forged), so undetected
//    colluding misreports drive safety below 1 even when utility looks fine.
//
// Determinism: every epoch's workload is keyed (WorkloadGenerator::
// epoch_keyed), every adversary plan is a pure function of (seed, epoch,
// history), and the harness itself is seed-deterministic — the campaign's
// decision_digest is therefore a replay witness: same (config, seed) ⇒ same
// digest, bit for bit.

#include <cstdint>
#include <vector>

#include "mvcom/adversary/adversary.hpp"
#include "mvcom/fault_injection.hpp"
#include "txn/trace.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

struct CampaignConfig {
  /// Per-epoch harness template. The campaign fills in `reserve` and
  /// `carry_in` itself; everything else (supervisor, DDL, obs sinks) is
  /// taken as given.
  ChaosConfig chaos{};
  AdversaryConfig adversary{};
  txn::WorkloadConfig workload{};  // num_committees is overridden
  std::size_t epochs = 6;
  std::size_t committees = 20;
  /// Join-reserve pool size per epoch (churn-storm needs > 0).
  std::size_t reserve = 0;
};

struct EpochOutcome {
  FaultPlan plan;
  ChaosReport report;
  double utility = 0.0;
  std::uint64_t honest_permitted_txs = 0;
  std::uint64_t claimed_permitted_txs = 0;
  double safety = 1.0;
};

struct CampaignResult {
  std::vector<EpochOutcome> epochs;
  double mean_utility = 0.0;
  double mean_safety = 1.0;
  /// Any epoch's ladder reported infeasible while a feasible selection
  /// existed — must stay false under every strategy.
  bool infeasible_while_feasible = false;
  /// FNV-1a over every epoch's plan and decision — the replay witness.
  std::uint64_t decision_digest = 0;
};

/// Runs the campaign on workloads drawn from `trace`. Deterministic per
/// (trace, config, seed). Throws std::invalid_argument when `config.epochs`
/// is 0.
[[nodiscard]] CampaignResult run_adversarial_campaign(
    const txn::Trace& trace, const CampaignConfig& config,
    std::uint64_t seed);

}  // namespace mvcom::core
