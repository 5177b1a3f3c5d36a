#include "mvcom/fault_injection.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace mvcom::core {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kCrashRecover: return "crash-recover";
    case FaultKind::kStragglerDelay: return "straggler-delay";
    case FaultKind::kMisreport: return "misreport";
    case FaultKind::kEquivocate: return "equivocate";
    case FaultKind::kMessageLossBurst: return "message-loss-burst";
    case FaultKind::kForgeSubmission: return "forge-submission";
    case FaultKind::kJoin: return "join";
    case FaultKind::kLeave: return "leave";
  }
  return "unknown";
}

FaultPlan FaultPlan::randomized(const FaultPlanConfig& config,
                                std::size_t num_committees, common::Rng& rng) {
  // Ranges of a fault's duration and magnitude.
  constexpr double kMinDowntimeSeconds = 60.0;
  constexpr double kMaxDowntimeSeconds = 300.0;
  constexpr double kMaxSlowdown = 8.0;   // straggler factor drawn in (1, max]
  constexpr double kMaxInflation = 4.0;  // misreport factor drawn in (1, max]
  constexpr double kMaxLossProbability = 0.6;
  FaultPlan plan;
  const auto draw = [&](FaultKind kind, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      FaultEvent event;
      event.kind = kind;
      // Live-rank targeting: with no churn events the live order equals the
      // input order, so these plans reproduce the pre-churn harness exactly.
      event.victim = FaultEvent::Victim::kByLiveRank;
      event.committee_id =
          static_cast<std::uint32_t>(rng.below(num_committees));
      event.at_seconds = rng.uniform(0.0, kFaultHorizonSeconds);
      event.duration_seconds =
          rng.uniform(kMinDowntimeSeconds, kMaxDowntimeSeconds);
      switch (kind) {
        case FaultKind::kStragglerDelay:
          event.magnitude = rng.uniform(1.0, kMaxSlowdown);
          break;
        case FaultKind::kMisreport:
        case FaultKind::kEquivocate:
        case FaultKind::kForgeSubmission:
          event.magnitude = rng.uniform(1.0 + 1e-3, kMaxInflation);
          break;
        case FaultKind::kMessageLossBurst:
          event.magnitude = rng.uniform(0.0, kMaxLossProbability);
          break;
        case FaultKind::kCrash:
        case FaultKind::kCrashRecover:
        case FaultKind::kJoin:
        case FaultKind::kLeave:
          event.magnitude = 1.0;
          break;
      }
      plan.events.push_back(event);
    }
  };
  draw(FaultKind::kCrash, config.crashes);
  draw(FaultKind::kCrashRecover, config.crash_recovers);
  draw(FaultKind::kStragglerDelay, config.stragglers);
  draw(FaultKind::kMisreport, config.misreports);
  draw(FaultKind::kEquivocate, config.equivocations);
  draw(FaultKind::kMessageLossBurst, config.loss_bursts);
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at_seconds < b.at_seconds;
            });
  return plan;
}

std::vector<ChaosCommittee> chaos_committees_from_reports(
    std::span<const txn::ShardReport> reports) {
  std::vector<ChaosCommittee> committees;
  committees.reserve(reports.size());
  for (const txn::ShardReport& r : reports) {
    ChaosCommittee c;
    // One count-binding entry per shard suffices: the Merkle commitment is
    // over (hash, count) pairs, so the single entry binds the full s_i.
    c.submission = sharding::build_submission(
        r.committee_id,
        {{"shard-" + std::to_string(r.committee_id), r.tx_count}});
    c.formation_latency = r.formation_latency;
    c.consensus_latency = r.consensus_latency;
    committees.push_back(std::move(c));
  }
  return committees;
}

namespace {

constexpr std::size_t kIterationsPerTick = 40;  // SE iterations per tick
constexpr double kLinkLatencyMeanSeconds = 2.0;

/// Mutable in-flight state of one committee's submission.
struct PendingSubmission {
  sharding::ShardSubmission submission;
  double formation_latency = 0.0;
  double consensus_latency = 0.0;
  double deliver_at = 0.0;  // faults may push this back
  bool delivered = false;
};

/// Forges a verification-passing equivocation: the honest entries plus one
/// fabricated block, re-committed so root and count check out — only the
/// supervisor's equivocation tracking can catch it.
sharding::ShardSubmission forge_equivocation(
    const sharding::ShardSubmission& honest, double inflation) {
  std::vector<sharding::ShardEntry> entries = honest.entries;
  const std::uint64_t extra = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(honest.claimed_tx_count) *
             (inflation - 1.0)));
  entries.push_back({"forged-" + std::to_string(honest.committee_id), extra});
  return sharding::build_submission(honest.committee_id, std::move(entries));
}

/// Detaches the recorder's simulated clock on scope exit: the clock closure
/// captures the epoch's simulator, which dies before the recorder does.
struct SimClockGuard {
  obs::TraceRecorder* trace;
  ~SimClockGuard() {
    if (trace != nullptr) trace->set_sim_clock(nullptr);
  }
};

}  // namespace

ChaosReport run_chaos_epoch(const std::vector<ChaosCommittee>& committees,
                            const FaultPlan& plan, const ChaosConfig& config,
                            std::uint64_t seed) {
  if (!(config.ddl_seconds > 0.0 && std::isfinite(config.ddl_seconds))) {
    throw std::invalid_argument(
        "run_chaos_epoch: ddl_seconds must be finite and > 0");
  }
  common::Rng root(seed);
  sim::Simulator simulator;
  // Network nodes are fixed at construction, so the reserve pool gets its
  // nodes up front: [initial members][reserve][observer].
  const std::size_t total_members = committees.size() + config.reserve.size();
  net::Network network(
      simulator, root.fork(),
      std::make_shared<net::ExponentialLatency>(
          common::SimTime(kLinkLatencyMeanSeconds)),
      total_members + 1);
  const net::NodeId observer = static_cast<net::NodeId>(total_members);

  EpochSupervisor supervisor(config.supervisor, root());
  if (config.carry_in != nullptr) supervisor.adopt_carry(*config.carry_in);
  ChaosReport report;

  // Observability wiring. The sim clock must be detached before `simulator`
  // goes out of scope; the guard handles every exit path.
  obs::TraceRecorder* trace = config.obs.trace();
  SimClockGuard clock_guard{trace};
  if (trace != nullptr) {
    trace->set_sim_clock(
        [&simulator] { return simulator.now().seconds(); });
  }
  simulator.set_obs(config.obs);
  network.set_obs(config.obs);
  supervisor.set_obs(config.obs);
  if (trace != nullptr) {
    trace->instant("epoch", "epoch/start",
                   {{"committees", static_cast<double>(committees.size())},
                    {"ddl_s", config.ddl_seconds},
                    {"planned_faults", static_cast<double>(plan.events.size())}});
  }

  // Member i answers pings on node i; the first committees.size() members
  // form the epoch-start membership, the rest are the kJoin reserve.
  struct MemberState {
    sharding::ShardSubmission honest;  // as provided by the caller
    PendingSubmission pending;
    net::NodeId node = 0;
    bool member = false;  // currently part of the membership
    bool left = false;    // departed for good (kLeave)
  };
  std::vector<MemberState> members(total_members);
  std::vector<std::size_t> live_order;  // membership in join order
  live_order.reserve(total_members);
  const auto setup_member = [&](std::size_t i, const ChaosCommittee& c) {
    members[i].honest = c.submission;
    members[i].pending.submission = c.submission;
    members[i].pending.formation_latency = c.formation_latency;
    members[i].pending.consensus_latency = c.consensus_latency;
    members[i].pending.deliver_at = c.formation_latency + c.consensus_latency;
    members[i].node = static_cast<net::NodeId>(i);
  };
  for (std::size_t i = 0; i < committees.size(); ++i) {
    setup_member(i, committees[i]);
    members[i].member = true;
    live_order.push_back(i);
    supervisor.register_committee_node(members[i].honest.committee_id,
                                       members[i].node);
  }
  for (std::size_t j = 0; j < config.reserve.size(); ++j) {
    setup_member(committees.size() + j, config.reserve[j]);
  }
  supervisor.attach_monitor(simulator, network, observer);

  // Satellite fix: victims resolve against the LIVE membership at fire time,
  // not the epoch-start population — an event whose victim already left (or
  // never joined) is skipped and counted, never applied to a stale index.
  const auto resolve_victim = [&](const FaultEvent& event) -> std::size_t {
    if (event.victim == FaultEvent::Victim::kByLiveRank) {
      return event.committee_id < live_order.size()
                 ? live_order[event.committee_id]
                 : members.size();
    }
    for (const std::size_t i : live_order) {
      if (members[i].honest.committee_id == event.committee_id) return i;
    }
    return members.size();
  };

  const auto count_admission = [&](Admission admission) {
    switch (admission) {
      case Admission::kAdmitted: ++report.admitted; break;
      case Admission::kReadmitted: ++report.readmitted; break;
      case Admission::kQuarantined:
      case Admission::kBanned: ++report.quarantine_events; break;
      case Admission::kDuplicate:
      case Admission::kRefused: ++report.refused; break;
    }
  };

  const auto submit = [&](std::size_t i,
                          const sharding::ShardSubmission& submission) {
    if (members[i].left) return;
    if (network.is_failed(members[i].node)) {
      ++report.dropped_submissions;  // a down node cannot send (§V-A)
      return;
    }
    count_admission(
        supervisor.on_submission(submission,
                                 members[i].pending.formation_latency,
                                 members[i].pending.consensus_latency));
  };

  // Submission delivery: re-check deliver_at so straggler faults that land
  // while the message is still "in preparation" push it back.
  std::function<void(std::size_t)> deliver = [&](std::size_t i) {
    if (members[i].pending.delivered || members[i].left) return;
    if (simulator.now().seconds() + 1e-9 < members[i].pending.deliver_at) {
      simulator.schedule_at(common::SimTime(members[i].pending.deliver_at),
                            [&deliver, i] { deliver(i); });
      return;
    }
    members[i].pending.delivered = true;
    submit(i, members[i].pending.submission);
  };
  for (std::size_t i = 0; i < committees.size(); ++i) {
    simulator.schedule_at(common::SimTime(members[i].pending.deliver_at),
                          [&deliver, i] { deliver(i); });
  }

  // Fault injection. Each event fires as one sim event at its at_seconds;
  // the victim is resolved then (against the live membership), the trace
  // instant emitted, and the kind's action applied.
  const auto fire = [&](const FaultEvent& event) {
    // kJoin addresses the reserve pool, everything victimful the live set.
    std::size_t i = members.size();
    if (event.kind == FaultKind::kJoin) {
      const std::size_t slot = committees.size() + event.committee_id;
      if (slot < members.size() && !members[slot].member &&
          !members[slot].left) {
        i = slot;
      }
    } else if (event.kind != FaultKind::kMessageLossBurst) {
      i = resolve_victim(event);
    }
    if (event.kind != FaultKind::kMessageLossBurst && i >= members.size()) {
      ++report.skipped_events;
      if (trace != nullptr) {
        trace->instant(
            "fault", "fault/skipped",
            {{"kind", static_cast<double>(event.kind)},
             {"committee_id", static_cast<double>(event.committee_id)}});
      }
      return;
    }
    if (trace != nullptr) {
      trace->instant("fault", to_string(event.kind),
                     {{"committee_id", static_cast<double>(event.committee_id)},
                      {"magnitude", event.magnitude},
                      {"duration_s", event.duration_seconds}});
    }
    switch (event.kind) {
      case FaultKind::kCrash:
        network.set_failed(members[i].node, true);
        break;
      case FaultKind::kCrashRecover:
        network.set_failed(members[i].node, true);
        simulator.schedule_after(common::SimTime(event.duration_seconds),
                                 [&network, &members, i] {
                                   if (!members[i].left) {
                                     network.set_failed(members[i].node,
                                                        false);
                                   }
                                 });
        break;
      case FaultKind::kStragglerDelay:
        network.set_delay_factor(members[i].node, event.magnitude);
        if (!members[i].pending.delivered) {
          members[i].pending.deliver_at =
              std::max(members[i].pending.deliver_at,
                       simulator.now().seconds()) +
              event.duration_seconds;
        }
        break;
      case FaultKind::kMisreport:
        if (!members[i].pending.delivered) {
          // Inflate the claim before it is ever sent; the Merkle commitment
          // still binds the honest counts, so admission verification must
          // catch the lie.
          auto& s = members[i].pending.submission;
          s.claimed_tx_count = static_cast<std::uint64_t>(
              static_cast<double>(s.claimed_tx_count) * event.magnitude +
              1.0);
        } else {
          // Already admitted honestly: send the inflated claim now.
          sharding::ShardSubmission lie = members[i].honest;
          lie.claimed_tx_count = static_cast<std::uint64_t>(
              static_cast<double>(lie.claimed_tx_count) * event.magnitude +
              1.0);
          submit(i, lie);
        }
        break;
      case FaultKind::kEquivocate:
        submit(i, forge_equivocation(members[i].honest, event.magnitude));
        break;
      case FaultKind::kForgeSubmission:
        if (!members[i].pending.delivered) {
          // The forgery replaces the honest report outright: the single
          // submission that ever arrives verifies (the commitment is over
          // the fabricated entries), so admission cannot catch it — only a
          // later differing verified submission would.
          members[i].pending.submission =
              forge_equivocation(members[i].honest, event.magnitude);
        } else {
          // Too late to suppress the honest report: the forgery lands as a
          // second verified submission and is struck as an equivocation.
          submit(i, forge_equivocation(members[i].honest, event.magnitude));
        }
        break;
      case FaultKind::kJoin:
        members[i].member = true;
        live_order.push_back(i);
        supervisor.register_committee_node(members[i].honest.committee_id,
                                           members[i].node);
        // Joining IS reporting (Fig. 14): the join event delivers the
        // committee's report now. Admission may still refuse it (N_max).
        members[i].pending.delivered = true;
        submit(i, members[i].pending.submission);
        ++report.joins;
        break;
      case FaultKind::kLeave:
        members[i].member = false;
        members[i].left = true;
        live_order.erase(
            std::find(live_order.begin(), live_order.end(), i));
        network.set_failed(members[i].node, true);
        members[i].pending.delivered = true;  // never sends
        ++report.leaves;
        break;
      case FaultKind::kMessageLossBurst:
        network.set_loss_probability(event.magnitude);
        simulator.schedule_after(
            common::SimTime(event.duration_seconds),
            [&network] { network.set_loss_probability(0.0); });
        break;
    }
  };
  for (const FaultEvent& event : plan.events) {
    simulator.schedule_at(common::SimTime(event.at_seconds),
                          [&fire, event] { fire(event); });
  }

  // Exploration pump + timeline sampling + the acceptance-criterion check.
  const auto sample = [&] {
    const SupervisedDecision d = supervisor.decide();
    ChaosTimelinePoint point;
    point.at_seconds = simulator.now().seconds();
    point.feasible = d.decision.feasible;
    point.tier = d.tier;
    point.utility = d.decision.utility;
    report.timeline.push_back(point);
    if (!d.decision.feasible &&
        n_min_witness(supervisor.scheduler().reports(),
                      config.supervisor.scheduler.capacity,
                      supervisor.scheduler().n_min())) {
      report.infeasible_while_feasible = true;
    }
  };
  std::function<void()> tick = [&] {
    supervisor.explore(kIterationsPerTick);
    sample();
    const double next = simulator.now().seconds() + kExploreTickSeconds;
    if (next < config.ddl_seconds) {
      simulator.schedule_at(common::SimTime(next), tick);
    }
  };
  simulator.schedule_at(common::SimTime(kExploreTickSeconds), tick);

  simulator.run_until(common::SimTime(config.ddl_seconds));

  report.final_decision = supervisor.decide();
  sample();  // include the DDL instant itself in the timeline/criterion
  if (trace != nullptr) {
    trace->instant(
        "epoch", "epoch/decide",
        {{"tier", static_cast<double>(report.final_decision.tier)},
         {"feasible", report.final_decision.decision.feasible ? 1.0 : 0.0},
         {"utility", report.final_decision.decision.utility},
         {"permitted", static_cast<double>(
                           report.final_decision.decision.permitted_ids.size())}});
    // The whole epoch as one span (complete() records at the end; the
    // exporter rewinds the start by the duration, so this bar covers
    // [0, now] on the sim-time track in Perfetto).
    trace->complete(
        "epoch", "epoch/span", simulator.now().seconds(),
        {{"tier", static_cast<double>(report.final_decision.tier)},
         {"utility", report.final_decision.decision.utility}});
  }
  report.failures = supervisor.failures();
  report.quarantined_ids = supervisor.quarantined_ids();
  report.banned_ids = supervisor.banned_ids();
  report.failures_detected = supervisor.failures_detected();
  report.recoveries_detected = supervisor.recoveries_detected();
  report.final_reports = supervisor.scheduler().reports();
  report.resizes = supervisor.resizes();
  report.effective_n_min = supervisor.scheduler().n_min();
  report.risk_score = supervisor.risk_score();
  report.carry_out = supervisor.export_carry();
  return report;
}

}  // namespace mvcom::core
