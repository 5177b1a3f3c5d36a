// `campaign`: run_adversarial_campaign under the churn-storm strategy,
// configured as `mvcom chaos --adversary churn-storm` configures it (join
// reserve, risk policy on, 2 s links). One op = one short campaign under a
// seed derived from the workload seed. The only workload with injected
// faults; it drives the supervisor, the heartbeat detector, the ladder and
// SE's online join/leave rebind path.
//
// The traced run replays each campaign's epoch loop through the public
// functions it is built from (keyed workload, adversary plan, chaos epoch)
// with a span around each, and checks that the replay reproduces the entry
// point's decision digest.

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "mvcom/adversary/campaign.hpp"
#include "txn/trace_generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mvcom;
using common::Rng;

struct Shape {
  std::size_t committees;
  std::size_t epochs;
  std::size_t guard_ops;   // campaigns the quality guards average
  std::size_t traced_ops;
  std::size_t setup_reps;
};

Shape shape_for(const Options& options) {
  if (options.tiny) return {10, 2, 2, 2, 2};
  return {20, 4, 64, kMinTimedOps, 15};
}

core::CampaignConfig make_config(const Shape& shape) {
  core::CampaignConfig config;
  config.adversary.strategy = core::AdversaryStrategy::kChurnStorm;
  config.adversary.budget = 0.35;
  config.adversary.inflation = 3.0;
  config.committees = shape.committees;
  config.epochs = shape.epochs;
  config.reserve = shape.committees;
  auto& sched = config.chaos.supervisor.scheduler;
  sched.alpha = 1.5;
  sched.capacity = 725 * shape.committees;
  sched.expected_committees = shape.committees + config.reserve;
  sched.n_max_fraction = 1.0;
  sched.n_min_fraction = 0.5 * static_cast<double>(shape.committees) /
                         static_cast<double>(shape.committees + config.reserve);
  config.chaos.ddl_seconds = 1800.0;
  config.chaos.supervisor.risk.enabled = true;
  config.chaos.supervisor.risk.escalation_step = 1.2;
  config.chaos.supervisor.risk.boost_cap = 8;
  return config;
}

txn::Trace make_trace(const Shape& shape, std::uint64_t seed) {
  txn::TraceGeneratorConfig tc;
  tc.num_blocks = std::max<std::uint64_t>(64, 2 * shape.committees);
  tc.target_total_txs = tc.num_blocks * 1000;
  Rng rng(Rng::stream(seed, 0)());
  return txn::generate_trace(tc, rng);
}

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t op) {
  return Rng::stream(seed, 1000 + op)();
}

/// An op fails when any of its epochs ended without a feasible decision.
bool campaign_ok(const core::CampaignResult& r) {
  for (const auto& e : r.epochs) {
    if (!e.report.final_decision.decision.feasible) return false;
  }
  return !r.infeasible_while_feasible;
}

/// Quality guards summed over the guard prefix of campaigns; the age is
/// Σ TXs · two-phase latency over the permitted committees' admitted claims.
struct Guards {
  double age_weighted = 0.0;
  double txs = 0.0;
  double utility = 0.0;
  double safety = 0.0;
  std::size_t ops = 0;

  void add(const core::CampaignResult& r) {
    ++ops;
    utility += r.mean_utility;
    safety += r.mean_safety;
    for (const auto& e : r.epochs) {
      std::map<std::uint32_t, const txn::ShardReport*> by_id;
      for (const auto& report : e.report.final_reports) {
        by_id[report.committee_id] = &report;
      }
      for (const std::uint32_t id : e.report.final_decision.decision.permitted_ids) {
        const auto it = by_id.find(id);
        if (it == by_id.end()) continue;
        const double n = static_cast<double>(it->second->tx_count);
        age_weighted += n * it->second->two_phase_latency();
        txs += n;
      }
    }
  }
};

void timed(const Options& options, Result& result) {
  const Shape shape = shape_for(options);
  const core::CampaignConfig config = make_config(shape);
  std::vector<double> setups;
  std::optional<txn::Trace> trace;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    // Set-up: the trace and one cold campaign.
    const auto t0 = Clock::now();
    trace.emplace(make_trace(shape, options.seed));
    (void)core::run_adversarial_campaign(*trace, config,
                                         campaign_seed(options.seed, 0));
    setups.push_back(seconds_since(t0));
  }

  std::vector<double> op_walls;
  Guards guards;
  double committed = 0.0;
  std::optional<std::uint64_t> first_digest;
  double rss = 0.0;
  const auto start = Clock::now();
  for (std::size_t op = 0;
       seconds_since(start) < options.seconds || guards.ops < shape.guard_ops;
       ++op) {
    ++result.attempted;
    const auto t0 = Clock::now();
    core::CampaignResult r;
    try {
      r = core::run_adversarial_campaign(*trace, config,
                                         campaign_seed(options.seed, op));
    } catch (const std::exception& e) {
      ++result.failed;
      result.check(false, std::string("campaign: threw: ") + e.what());
      break;
    }
    op_walls.push_back(seconds_since(t0));
    if (!campaign_ok(r)) ++result.failed;
    result.check(!r.infeasible_while_feasible,
                 "campaign: ladder infeasible while a feasible selection "
                 "existed (op " + std::to_string(op) + ")");
    for (const auto& e : r.epochs) {
      committed += static_cast<double>(e.honest_permitted_txs);
    }
    if (guards.ops < shape.guard_ops) {
      guards.add(r);
      if (guards.ops == shape.guard_ops) rss = peak_rss_mb();
    }
    if (!first_digest) first_digest = r.decision_digest;
  }
  set_op_metrics(result, op_walls, committed, setups, rss);

  core::CampaignResult replay = core::run_adversarial_campaign(
      *trace, config, campaign_seed(options.seed, 0));
  if (options.tamper == "digest") replay.decision_digest ^= 1;
  result.check(first_digest && replay.decision_digest == *first_digest,
               "campaign: decision digest does not replay");
  result.set("tx_age_mean_s", guards.age_weighted / guards.txs, "s");
  result.set("utility_mean", guards.utility / static_cast<double>(guards.ops),
             "utility");
  result.set("safety_mean", guards.safety / static_cast<double>(guards.ops),
             "ratio");
}

/// The campaign's decision-digest fold, byte for byte.
struct Fnv {
  std::uint64_t h = common::kFnv1aBasis;
  void byte(std::uint8_t b) { h = common::fnv1a_byte(h, b); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
};

/// The benchmark's copy of run_adversarial_campaign's epoch loop with a span
/// around each layer call. Returns the decision digest.
std::uint64_t traced_campaign(const txn::Trace& trace,
                              const core::CampaignConfig& config,
                              std::uint64_t seed, Tracer& tracer,
                              std::uint64_t op, int parent,
                              std::size_t& fallback_epochs,
                              std::size_t& skipped_events) {
  std::optional<txn::WorkloadGenerator> gen;
  std::optional<core::Adversary> adversary;
  {
    Tracer::Scope s(tracer, "mvcom.campaign_setup", op, parent);
    txn::WorkloadConfig wc = config.workload;
    wc.num_committees = config.committees + config.reserve;
    gen.emplace(trace, wc);
    adversary.emplace(config.adversary, seed);
  }
  Fnv digest;
  core::SupervisorCarry carry;
  std::optional<core::EpochObservation> last;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    txn::EpochWorkload workload;
    std::vector<core::ChaosCommittee> initial, reserve;
    std::map<std::uint32_t, std::uint64_t> honest;
    {
      Tracer::Scope s(tracer, "txn.workload", op, parent);
      workload = gen->epoch_keyed(seed, 2 * e);
      const std::span<const txn::ShardReport> reports(workload.reports);
      initial = core::chaos_committees_from_reports(
          reports.subspan(0, config.committees));
      reserve = core::chaos_committees_from_reports(
          reports.subspan(config.committees));
      for (const txn::ShardReport& r : workload.reports) {
        honest[r.committee_id] = r.tx_count;
      }
    }
    core::FaultPlan plan;
    {
      Tracer::Scope s(tracer, "mvcom.adversary_plan", op, parent);
      plan = adversary->plan_epoch(e, initial, reserve.size(), last);
    }
    core::ChaosConfig chaos = config.chaos;
    chaos.reserve = reserve;
    chaos.carry_in = e > 0 ? &carry : config.chaos.carry_in;
    const std::uint64_t epoch_seed = Rng::stream(seed, 2 * e + 1)();
    core::ChaosReport report;
    {
      Tracer::Scope s(tracer, "mvcom.chaos_epoch", op, parent);
      report = core::run_chaos_epoch(initial, plan, chaos, epoch_seed);
    }
    Tracer::Scope s(tracer, "mvcom.campaign_score", op, parent);
    const core::SchedulingDecision& decision = report.final_decision.decision;
    const double utility = decision.feasible ? decision.utility : 0.0;
    if (report.final_decision.tier != core::DecisionTier::kSeBest) {
      ++fallback_epochs;
    }
    skipped_events += report.skipped_events;
    digest.u64(e);
    digest.u64(plan.events.size());
    for (const core::FaultEvent& ev : plan.events) {
      digest.byte(static_cast<std::uint8_t>(ev.kind));
      digest.byte(static_cast<std::uint8_t>(ev.victim));
      digest.u64(ev.committee_id);
      digest.f64(ev.at_seconds);
      digest.f64(ev.duration_seconds);
      digest.f64(ev.magnitude);
    }
    digest.byte(static_cast<std::uint8_t>(report.final_decision.tier));
    digest.byte(decision.feasible ? 1 : 0);
    digest.u64(decision.permitted_ids.size());
    for (const std::uint32_t id : decision.permitted_ids) digest.u64(id);
    digest.f64(utility);
    digest.u64(report.effective_n_min);
    digest.u64(report.joins);
    digest.u64(report.leaves);
    digest.u64(report.skipped_events);
    digest.f64(report.risk_score);
    carry = report.carry_out;
    last = core::EpochObservation{decision.permitted_ids, report.final_reports,
                                  report.banned_ids, utility};
  }
  return digest.h;
}

void traced(const Options& options, Result& result) {
  const Shape shape = shape_for(options);
  const std::size_t k = shape.traced_ops;
  const txn::Trace trace = make_trace(shape, options.seed);
  core::CampaignConfig config = make_config(shape);

  std::vector<double> untraced_walls;
  std::vector<std::uint64_t> digests;
  for (std::size_t op = 0; op < k; ++op) {
    const auto t0 = Clock::now();
    digests.push_back(core::run_adversarial_campaign(
                          trace, config, campaign_seed(options.seed, op))
                          .decision_digest);
    untraced_walls.push_back(seconds_since(t0));
  }

  Tracer tracer;
  obs::MetricsRegistry registry;
  config.chaos.obs = obs::ObsContext{&registry, nullptr};
  bool match = true;
  std::size_t fallback_epochs = 0, skipped_events = 0;
  for (std::size_t op = 0; op < k; ++op) {
    Tracer::Scope o(tracer, "op", op, -1, false);
    match = traced_campaign(trace, config, campaign_seed(options.seed, op),
                            tracer, op, o.id(), fallback_epochs,
                            skipped_events) == digests[op] &&
            match;
  }
  result.attempted += k;

  const double ops = static_cast<double>(k);
  const auto per_op = [&](const char* name) {
    return tracer.total_seconds(name) / ops;
  };
  const auto count = [&](const char* name, const char* label = "") {
    return counter_total(registry, name, label) / ops;
  };
  const double accepts = count("mvcom_se_transitions_total", "accept");
  const double proposals = count("mvcom_se_transitions_total");
  result.set("txn.workload_s", per_op("txn.workload"), "s");
  result.set("mvcom.adversary_plan_s", per_op("mvcom.adversary_plan"), "s");
  result.set("mvcom.chaos_epoch_s", per_op("mvcom.chaos_epoch"), "s");
  result.set("mvcom.se_iterations", count("mvcom_se_iterations_total"), "count");
  result.set("mvcom.se_accept_ratio",
             proposals > 0.0 ? accepts / proposals : 0.0, "ratio");
  result.set("mvcom.se_joins", count("mvcom_se_rebinds_total", "join"), "count");
  result.set("mvcom.se_leaves", count("mvcom_se_rebinds_total", "leave"),
             "count");
  result.set("mvcom.skipped_events",
             static_cast<double>(skipped_events) / ops, "count");
  result.set("supervisor.submissions",
             count("mvcom_supervisor_submissions_total"), "count");
  result.set("supervisor.strikes", count("mvcom_supervisor_strikes_total"),
             "count");
  result.set("supervisor.decisions", count("mvcom_supervisor_decisions_total"),
             "count");
  result.set("supervisor.ladder_fallbacks",
             static_cast<double>(fallback_epochs) / ops, "count");
  result.set("supervisor.probes_missed",
             count("mvcom_supervisor_probes_total", "missed"), "count");
  result.set("supervisor.resizes", count("mvcom_supervisor_resizes_total"),
             "count");
  result.set("sim.events_per_op", count("mvcom_sim_events_total", "executed"),
             "count");
  result.set("op_wall_p90_s", percentile(untraced_walls, 0.9), "s");
  result.set("trace.coverage", tracer.coverage("op"), "ratio");
  result.set("trace.overhead",
             median(tracer.durations("op")) / median(untraced_walls) - 1.0,
             "ratio");
  result.set("trace.replay_match", match ? 1.0 : 0.0, "bool");
  result.set("trace.ops", ops, "count");
  tracer.write(options.out_dir + "/spans-campaign-seed" +
               std::to_string(options.seed) + ".json");
}

}  // namespace

void run_campaign(const Options& options, Result& result) {
  if (options.trace) {
    traced(options, result);
  } else {
    timed(options, result);
  }
}

}  // namespace perfbench
