#include "mvcom/adversary/campaign.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <stdexcept>

#include "common/fnv.hpp"

namespace mvcom::core {

namespace {

/// Substream layout per epoch e off the campaign seed: 2e keys the honest
/// workload, 2e+1 the harness (the Adversary salts its own family).
constexpr std::uint64_t kWorkloadStream = 0;
constexpr std::uint64_t kHarnessStream = 1;

using common::fnv1a_byte;
using common::fnv1a_u64;

}  // namespace

CampaignResult run_adversarial_campaign(const txn::Trace& trace,
                                        const CampaignConfig& config,
                                        std::uint64_t seed) {
  // A campaign of no epochs decides nothing; its digest would be the FNV
  // offset basis.
  if (config.epochs == 0) {
    throw std::invalid_argument("run_adversarial_campaign: epochs >= 1");
  }
  txn::WorkloadConfig wc = config.workload;
  wc.num_committees = config.committees + config.reserve;
  const txn::WorkloadGenerator gen(trace, wc);
  const Adversary adversary(config.adversary, seed);

  CampaignResult result;
  result.epochs.reserve(config.epochs);
  std::uint64_t digest = common::kFnv1aBasis;
  SupervisorCarry carry;
  std::optional<EpochObservation> last;

  for (std::size_t e = 0; e < config.epochs; ++e) {
    // Honest inputs, keyed per (seed, epoch): the first `committees`
    // reports are the epoch-start membership, the rest the join reserve.
    const txn::EpochWorkload workload =
        gen.epoch_keyed(seed, 2 * e + kWorkloadStream);
    const std::span<const txn::ShardReport> reports(workload.reports);
    const auto initial = chaos_committees_from_reports(
        reports.subspan(0, config.committees));
    const auto reserve =
        chaos_committees_from_reports(reports.subspan(config.committees));
    std::map<std::uint32_t, std::uint64_t> honest;
    for (const txn::ShardReport& r : workload.reports) {
      honest[r.committee_id] = r.tx_count;
    }

    const FaultPlan plan =
        adversary.plan_epoch(e, initial, reserve.size(), last);

    ChaosConfig chaos = config.chaos;
    chaos.reserve = reserve;
    chaos.carry_in = e > 0 ? &carry : config.chaos.carry_in;
    const std::uint64_t epoch_seed =
        common::Rng::stream(seed, 2 * e + kHarnessStream)();

    EpochOutcome outcome;
    outcome.plan = plan;
    outcome.report = run_chaos_epoch(initial, plan, chaos, epoch_seed);
    const ChaosReport& report = outcome.report;
    const SchedulingDecision& decision = report.final_decision.decision;
    outcome.utility = decision.feasible ? decision.utility : 0.0;

    // Safety: a permitted committee whose admitted claim disagrees with its
    // honest workload count shipped a forged shard — its claimed TXs count
    // toward throughput on paper but contribute nothing honest.
    std::map<std::uint32_t, std::uint64_t> claimed;
    for (const txn::ShardReport& r : report.final_reports) {
      claimed[r.committee_id] = r.tx_count;
    }
    for (const std::uint32_t id : decision.permitted_ids) {
      const auto c = claimed.find(id);
      const std::uint64_t claim = c != claimed.end() ? c->second : 0;
      outcome.claimed_permitted_txs += claim;
      const auto hline = honest.find(id);
      if (hline != honest.end() && hline->second == claim) {
        outcome.honest_permitted_txs += claim;
      }
    }
    outcome.safety =
        outcome.claimed_permitted_txs == 0
            ? 1.0
            : static_cast<double>(outcome.honest_permitted_txs) /
                  static_cast<double>(outcome.claimed_permitted_txs);

    // Fold the epoch into the replay witness: the plan the adversary chose
    // and every decision-relevant output of the run.
    digest = fnv1a_u64(digest, e);
    digest = fnv1a_u64(digest, plan.events.size());
    for (const FaultEvent& ev : plan.events) {
      digest = fnv1a_byte(digest, static_cast<std::uint8_t>(ev.kind));
      digest = fnv1a_byte(digest, static_cast<std::uint8_t>(ev.victim));
      digest = fnv1a_u64(digest, ev.committee_id);
      digest = fnv1a_u64(digest, std::bit_cast<std::uint64_t>(ev.at_seconds));
      digest = fnv1a_u64(digest,
                         std::bit_cast<std::uint64_t>(ev.duration_seconds));
      digest = fnv1a_u64(digest, std::bit_cast<std::uint64_t>(ev.magnitude));
    }
    digest = fnv1a_byte(digest,
                        static_cast<std::uint8_t>(report.final_decision.tier));
    digest = fnv1a_byte(digest, decision.feasible ? 1 : 0);
    digest = fnv1a_u64(digest, decision.permitted_ids.size());
    for (const std::uint32_t id : decision.permitted_ids) {
      digest = fnv1a_u64(digest, id);
    }
    digest = fnv1a_u64(digest, std::bit_cast<std::uint64_t>(outcome.utility));
    digest = fnv1a_u64(digest, report.effective_n_min);
    digest = fnv1a_u64(digest, report.joins);
    digest = fnv1a_u64(digest, report.leaves);
    digest = fnv1a_u64(digest, report.skipped_events);
    digest =
        fnv1a_u64(digest, std::bit_cast<std::uint64_t>(report.risk_score));

    result.infeasible_while_feasible |= report.infeasible_while_feasible;
    carry = report.carry_out;
    last = EpochObservation{decision.permitted_ids, report.final_reports,
                            report.banned_ids, outcome.utility};
    result.epochs.push_back(std::move(outcome));
  }

  result.mean_utility = 0.0;
  result.mean_safety = 0.0;
  for (const EpochOutcome& o : result.epochs) {
    result.mean_utility += o.utility;
    result.mean_safety += o.safety;
  }
  if (!result.epochs.empty()) {
    result.mean_utility /= static_cast<double>(result.epochs.size());
    result.mean_safety /= static_cast<double>(result.epochs.size());
  }
  result.decision_digest = digest;
  return result;
}

}  // namespace mvcom::core
