#include "consensus/pbft.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::consensus {

namespace {
constexpr const char* kPhaseNames[] = {"preprepare", "prepare", "commit",
                                       "view_change", "new_view"};
}  // namespace

void PbftCluster::set_obs(obs::ObsContext obs) {
  obs_ = obs;
  obs_msg_.fill(nullptr);
  obs_view_changes_ = nullptr;
  obs_committed_ = nullptr;
  obs_aborted_ = nullptr;
  if (obs::MetricsRegistry* m = obs_.metrics()) {
    for (std::size_t p = 0; p < obs_msg_.size(); ++p) {
      obs_msg_[p] = &m->counter("mvcom_pbft_messages_total",
                                "PBFT protocol messages sent, by phase",
                                {{"phase", kPhaseNames[p]}});
    }
    obs_view_changes_ =
        &m->counter("mvcom_pbft_view_changes_total",
                    "NEW-VIEW activations across all instances", {});
    obs_committed_ =
        &m->counter("mvcom_pbft_instances_total",
                    "Consensus instances by outcome", {{"result", "committed"}});
    obs_aborted_ =
        &m->counter("mvcom_pbft_instances_total",
                    "Consensus instances by outcome", {{"result", "aborted"}});
  }
}

PbftCluster::PbftCluster(sim::Simulator& simulator, net::Network& network,
                         PbftConfig config, Rng rng,
                         std::vector<NodeId> members)
    : simulator_(simulator),
      network_(network),
      config_(config),
      rng_(rng),
      members_(std::move(members)),
      replicas_(members_.size()) {
  if (members_.empty()) {
    throw std::invalid_argument("PbftCluster: need at least one replica");
  }
  if (members_.size() > 0xffff) {
    throw std::invalid_argument(
        "PbftCluster: replica counts must fit SenderBitset's 16-bit tally");
  }
  for (const NodeId m : members_) {
    if (m >= network_.node_count()) {
      throw std::invalid_argument("PbftCluster: member outside the network");
    }
  }
}

bool PbftCluster::committed_digests_consistent() const {
  const Digest* agreed = nullptr;
  for (const Replica& rep : replicas_) {
    if (!rep.committed) continue;
    if (agreed && *agreed != rep.committed_digest) return false;
    agreed = &rep.committed_digest;
  }
  return true;
}

void PbftCluster::set_fault(std::size_t r, FaultMode mode) {
  replicas_.at(r).fault = mode;
}

void PbftCluster::set_speed_factor(std::size_t r, double factor) {
  assert(factor > 0.0);
  replicas_.at(r).speed_factor = factor;
}

void PbftCluster::send(std::size_t from, std::size_t to, Message msg) {
  if (replicas_[from].fault == FaultMode::kSilent) return;
  ++result_.messages;
  if (obs::Counter* c = obs_msg_[static_cast<std::size_t>(msg.phase)]) {
    c->inc();
  }
  // Two events per message. The network delivery draws the receiver's
  // verification delay (signature checks + payload validation, scaled by
  // its processing speed — the heterogeneous capability of paper §I), and
  // the phase handler runs after it. Silent receivers draw nothing.
  network_.send(node_of(from), node_of(to), [this, to, msg] {
    const Replica& rep = replicas_[to];
    if (rep.fault == FaultMode::kSilent) return;
    const SimTime verify = SimTime(
        rep.speed_factor *
        rng_.exponential(config_.verification_mean.seconds()));
    simulator_.schedule_after(verify, [this, to, msg] { handle(to, msg); });
  });
}

void PbftCluster::broadcast(std::size_t from, const Message& msg) {
  for (std::size_t to = 0; to < replicas_.size(); ++to) {
    if (to != from) send(from, to, msg);
  }
}

void PbftCluster::propose(std::size_t leader) {
  Replica& rep = replicas_[leader];
  if (rep.fault == FaultMode::kSilent) return;  // crashed leader: stall
  const std::uint64_t view = rep.view;
  if (rep.fault == FaultMode::kEquivocate) {
    // Send payload A to the first half and payload B to the second half.
    for (std::size_t to = 0; to < replicas_.size(); ++to) {
      if (to == leader) continue;
      const std::uint8_t d =
          (to < replicas_.size() / 2) ? std::uint8_t{0} : std::uint8_t{1};
      send(leader, to, Message{Phase::kPrePrepare, view, d, leader});
    }
    return;
  }
  // Honest leader: pre-prepare own slot, then broadcast.
  view_state(rep, view).preprepared = 0;
  broadcast(leader, Message{Phase::kPrePrepare, view, 0, leader});
  try_prepare(leader);
}

void PbftCluster::handle(std::size_t r, const Message& msg) {
  if (instance_done_) return;
  switch (msg.phase) {
    case Phase::kPrePrepare: on_preprepare(r, msg); break;
    case Phase::kPrepare: on_prepare(r, msg); break;
    case Phase::kCommit: on_commit(r, msg); break;
    case Phase::kViewChange: on_view_change(r, msg); break;
    case Phase::kNewView: on_new_view(r, msg); break;
  }
}

void PbftCluster::on_preprepare(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (msg.view != rep.view || msg.sender != leader_of(msg.view)) return;
  ViewState& vs = view_state(rep, msg.view);
  if (vs.preprepared >= 0) return;  // accept only the first per view
  vs.preprepared = static_cast<std::int8_t>(msg.digest_idx);
  try_prepare(r);
}

void PbftCluster::try_prepare(std::size_t r) {
  Replica& rep = replicas_[r];
  ViewState& vs = view_state(rep, rep.view);
  if (vs.preprepared < 0 || vs.sent_prepare) return;
  vs.sent_prepare = true;
  const auto d = static_cast<std::uint8_t>(vs.preprepared);
  const Message prepare{Phase::kPrepare, rep.view, d, r};
  // A replica's own PREPARE counts toward its quorum.
  vs.prepares[d].insert(r);
  broadcast(r, prepare);
  try_commit(r);
}

void PbftCluster::on_prepare(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (msg.view != rep.view) return;
  view_state(rep, msg.view).prepares[msg.digest_idx].insert(msg.sender);
  try_commit(r);
}

void PbftCluster::try_commit(std::size_t r) {
  Replica& rep = replicas_[r];
  ViewState& vs = view_state(rep, rep.view);
  if (vs.preprepared < 0 || !vs.sent_prepare || vs.sent_commit) return;
  // prepared(): matching pre-prepare plus 2f PREPAREs (own included above,
  // so the threshold here is 2f+1 entries in the set).
  const auto d = static_cast<std::uint8_t>(vs.preprepared);
  if (vs.prepares[d].size() < quorum()) return;
  vs.prepared = true;
  vs.sent_commit = true;
  const Message commit{Phase::kCommit, rep.view, d, r};
  vs.commits[d].insert(r);
  broadcast(r, commit);
  // Own commit may already complete the quorum in tiny clusters.
  on_commit(r, commit);
}

void PbftCluster::on_commit(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (rep.committed || msg.view != rep.view) return;
  ViewState& vs = view_state(rep, msg.view);
  vs.commits[msg.digest_idx].insert(msg.sender);
  if (!vs.prepared || vs.preprepared != static_cast<std::int8_t>(msg.digest_idx)) {
    return;
  }
  if (vs.commits[msg.digest_idx].size() < quorum()) return;
  // committed-local: prepared plus 2f+1 matching COMMITs.
  rep.committed = true;
  rep.committed_digest = digest_of(msg.digest_idx);
  rep.commit_time = simulator_.now();
  simulator_.cancel(rep.view_timer);
  note_replica_committed(r);
}

void PbftCluster::note_replica_committed(std::size_t r) {
  ++committed_replicas_;
  if (!instance_done_ && committed_replicas_ >= quorum()) {
    finalize(true, replicas_[r].committed_digest);
  }
}

void PbftCluster::finalize(bool committed_quorum, const Digest& digest) {
  instance_done_ = true;
  result_.committed = committed_quorum;
  if (committed_quorum) {
    result_.committed_digest = digest;
    result_.latency = simulator_.now() - instance_start_;
  }
  if (obs::Counter* c = committed_quorum ? obs_committed_ : obs_aborted_) {
    c->inc();
  }
  if (auto* t = obs_.trace()) {
    // Span covers start_consensus -> decision (the exporter rewinds the
    // start timestamp by the duration).
    t->complete("pbft", committed_quorum ? "pbft/instance" : "pbft/abort",
                (simulator_.now() - instance_start_).seconds(),
                {{"committed", committed_quorum ? 1.0 : 0.0},
                 {"view_changes", static_cast<double>(result_.view_changes)},
                 {"messages", static_cast<double>(result_.messages)}});
  }
  simulator_.cancel(horizon_event_);
  for (Replica& rep : replicas_) simulator_.cancel(rep.view_timer);
  result_.replica_commit_times.clear();
  result_.replica_commit_times.reserve(replicas_.size());
  for (const Replica& rep : replicas_) {
    result_.replica_commit_times.push_back(
        rep.commit_time.is_infinite() ? SimTime::infinity()
                                      : rep.commit_time - instance_start_);
  }
  if (on_decided_) {
    // Move out first: the callback may start a new instance on this cluster.
    auto cb = std::move(on_decided_);
    on_decided_ = nullptr;
    cb(result_);
  }
}

void PbftCluster::arm_view_timer(std::size_t r) {
  Replica& rep = replicas_[r];
  if (rep.fault == FaultMode::kSilent) return;
  simulator_.cancel(rep.view_timer);
  rep.view_timer = simulator_.schedule_after(
      config_.view_change_timeout, [this, r] {
        Replica& self = replicas_[r];
        if (self.committed || instance_done_) return;
        // Escalate: first timeout votes view+1; if that view's leader also
        // stalls, the next timeout votes one higher, and so on.
        const std::uint64_t target =
            std::max(self.view + 1, self.view_change_target + 1);
        self.view_change_target = target;
        view_change_set(self, target).insert(r);
        broadcast(r, Message{Phase::kViewChange, target, 0, r});
        arm_view_timer(r);  // keep escalating if the next view stalls too
      });
}

void PbftCluster::on_view_change(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  const std::uint64_t target = msg.view;
  if (target <= rep.view) return;
  SenderBitset& vc = view_change_set(rep, target);
  vc.insert(msg.sender);
  // Join rule: f+1 votes for a higher view prove at least one honest
  // replica timed out — join the view change instead of waiting out our
  // own timer (keeps the targets of honest replicas in sync).
  if (!rep.committed && target > rep.view_change_target &&
      vc.size() >= max_faulty() + 1) {
    rep.view_change_target = target;
    vc.insert(r);
    broadcast(r, Message{Phase::kViewChange, target, 0, r});
  }
  if (leader_of(target) != r) return;
  if (vc.size() < quorum()) return;
  // New leader activates the view and re-proposes.
  ++result_.view_changes;
  if (obs_view_changes_ != nullptr) obs_view_changes_->inc();
  enter_view(r, target, 0);
  broadcast(r, Message{Phase::kNewView, target, 0, r});
  try_prepare(r);
}

void PbftCluster::on_new_view(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (msg.view <= rep.view || msg.sender != leader_of(msg.view)) return;
  enter_view(r, msg.view, msg.digest_idx);
  try_prepare(r);
}

void PbftCluster::enter_view(std::size_t r, std::uint64_t view,
                             std::uint8_t digest_idx) {
  Replica& rep = replicas_[r];
  rep.view = view;
  rep.view_change_target = std::max(rep.view_change_target, view);
  ViewState& vs = view_state(rep, view);
  if (vs.preprepared < 0) {
    vs.preprepared = static_cast<std::int8_t>(digest_idx);
  }
  arm_view_timer(r);
}

void PbftCluster::start_consensus(
    const Digest& payload, std::function<void(const PbftResult&)> on_decided) {
  payload_ = payload;
  // The equivocation payload is derived, distinct from the honest one.
  equivocation_payload_ = crypto::Sha256::hash(crypto::to_hex(payload));
  result_ = PbftResult{};
  committed_replicas_ = 0;
  instance_done_ = false;
  on_decided_ = std::move(on_decided);
  instance_start_ = simulator_.now();
  for (Replica& rep : replicas_) {
    rep.view = 0;
    rep.views.clear();
    rep.view_changes.clear();
    rep.committed = false;
    rep.commit_time = SimTime::infinity();
    rep.view_change_target = 0;
  }
  horizon_event_ = simulator_.schedule_after(config_.horizon, [this] {
    if (!instance_done_) finalize(false, Digest{});
  });
  for (std::size_t r = 0; r < replicas_.size(); ++r) arm_view_timer(r);
  propose(leader_of(0));
}

PbftResult PbftCluster::run_consensus(const Digest& payload) {
  bool decided = false;
  PbftResult out;
  start_consensus(payload, [&](const PbftResult& r) {
    decided = true;
    out = r;
  });
  // The horizon event bounds this loop even if the protocol stalls.
  while (!decided && simulator_.run(1) == 1) {
  }
  return out;
}

}  // namespace mvcom::consensus
