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

void PbftCluster::set_speed_factor(std::size_t r, double factor) {
  assert(factor > 0.0);
  replicas_.at(r).speed_factor = factor;
}

void PbftCluster::send(std::size_t from, std::size_t to, Message msg) {
  ++result_.messages;
  if (obs::Counter* c = obs_msg_[static_cast<std::size_t>(msg.phase)]) {
    c->inc();
  }
  // Two events per message. The network delivery draws the receiver's
  // verification delay (signature checks + payload validation, scaled by
  // its processing speed — the heterogeneous capability of paper §I), and
  // the phase handler runs after it. The network drops a send to or from a
  // failed node before any draw.
  network_.send(node_of(from), node_of(to), [this, to, msg] {
    const SimTime verify = SimTime(
        replicas_[to].speed_factor *
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
  // Pre-prepare the leader's own slot, then broadcast. A failed leader's
  // broadcast is dropped, so its view stalls until the view change.
  Replica& rep = replicas_[leader];
  view_state(rep, rep.view).preprepared = true;
  broadcast(leader, Message{Phase::kPrePrepare, rep.view, leader});
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
  if (vs.preprepared) return;  // accept only the first per view
  vs.preprepared = true;
  try_prepare(r);
}

void PbftCluster::try_prepare(std::size_t r) {
  Replica& rep = replicas_[r];
  ViewState& vs = view_state(rep, rep.view);
  if (!vs.preprepared || vs.sent_prepare) return;
  vs.sent_prepare = true;
  const Message prepare{Phase::kPrepare, rep.view, r};
  // A replica's own PREPARE counts toward its quorum.
  vs.prepares.insert(r);
  broadcast(r, prepare);
  try_commit(r);
}

void PbftCluster::on_prepare(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (msg.view != rep.view) return;
  view_state(rep, msg.view).prepares.insert(msg.sender);
  try_commit(r);
}

void PbftCluster::try_commit(std::size_t r) {
  Replica& rep = replicas_[r];
  ViewState& vs = view_state(rep, rep.view);
  if (!vs.sent_prepare || vs.prepared) return;
  // prepared(): matching pre-prepare plus 2f PREPAREs (own included above,
  // so the threshold here is 2f+1 entries in the set).
  if (vs.prepares.size() < quorum()) return;
  vs.prepared = true;
  const Message commit{Phase::kCommit, rep.view, r};
  vs.commits.insert(r);
  broadcast(r, commit);
  // Own commit may already complete the quorum in tiny clusters.
  on_commit(r, commit);
}

void PbftCluster::on_commit(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (rep.committed || msg.view != rep.view) return;
  ViewState& vs = view_state(rep, msg.view);
  vs.commits.insert(msg.sender);
  if (!vs.prepared || vs.commits.size() < quorum()) return;
  // committed-local: prepared plus 2f+1 matching COMMITs.
  rep.committed = true;
  simulator_.cancel(rep.view_timer);
  ++committed_replicas_;
  if (!instance_done_ && committed_replicas_ >= quorum()) finalize(true);
}

void PbftCluster::finalize(bool committed_quorum) {
  instance_done_ = true;
  result_.committed = committed_quorum;
  if (committed_quorum) result_.latency = simulator_.now() - instance_start_;
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
  if (on_decided_) {
    // Move out first: the callback may start a new instance on this cluster.
    auto cb = std::move(on_decided_);
    on_decided_ = nullptr;
    cb(result_);
  }
}

void PbftCluster::arm_view_timer(std::size_t r) {
  Replica& rep = replicas_[r];
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
        broadcast(r, Message{Phase::kViewChange, target, r});
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
    broadcast(r, Message{Phase::kViewChange, target, r});
  }
  if (leader_of(target) != r) return;
  if (vc.size() < quorum()) return;
  // New leader activates the view and re-proposes.
  ++result_.view_changes;
  if (obs_view_changes_ != nullptr) obs_view_changes_->inc();
  enter_view(r, target);
  broadcast(r, Message{Phase::kNewView, target, r});
  try_prepare(r);
}

void PbftCluster::on_new_view(std::size_t r, const Message& msg) {
  Replica& rep = replicas_[r];
  if (msg.view <= rep.view || msg.sender != leader_of(msg.view)) return;
  enter_view(r, msg.view);
  try_prepare(r);
}

void PbftCluster::enter_view(std::size_t r, std::uint64_t view) {
  Replica& rep = replicas_[r];
  rep.view = view;
  rep.view_change_target = std::max(rep.view_change_target, view);
  view_state(rep, view).preprepared = true;
  arm_view_timer(r);
}

void PbftCluster::start_consensus(
    const Digest& /*payload*/,
    std::function<void(const PbftResult&)> on_decided) {
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
    rep.view_change_target = 0;
  }
  horizon_event_ = simulator_.schedule_after(config_.horizon, [this] {
    if (!instance_done_) finalize(false);
  });
  for (std::size_t r = 0; r < replicas_.size(); ++r) arm_view_timer(r);
  propose(leader_of(0));
}

}  // namespace mvcom::consensus
