#include "net/network.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::net {

void Network::set_obs(obs::ObsContext obs) {
  obs_ = obs;
  obs_sent_ = nullptr;
  obs_pings_ = nullptr;
  obs_dropped_failed_ = nullptr;
  obs_dropped_loss_ = nullptr;
  obs_delay_ = nullptr;
  if (obs::MetricsRegistry* m = obs_.metrics()) {
    obs_sent_ = &m->counter("mvcom_net_messages_total",
                            "Network messages by outcome",
                            {{"outcome", "sent"}});
    obs_pings_ = &m->counter("mvcom_net_pings_total",
                             "Round-trip probes sampled via ping_rtt");
    obs_dropped_failed_ =
        &m->counter("mvcom_net_messages_total", "Network messages by outcome",
                    {{"outcome", "dropped_endpoint_failed"}});
    obs_dropped_loss_ =
        &m->counter("mvcom_net_messages_total", "Network messages by outcome",
                    {{"outcome", "dropped_loss"}});
    obs_delay_ = &m->histogram("mvcom_net_delay_seconds",
                               "Sampled one-way message delays");
  }
}

Network::Network(sim::Simulator& simulator, Rng rng,
                 std::shared_ptr<const LatencyModel> link_model,
                 std::size_t node_count)
    : simulator_(simulator),
      rng_(rng),
      link_model_(std::move(link_model)),
      factors_(node_count, 1.0),
      failed_(node_count, false) {
  if (!link_model_) {
    throw std::invalid_argument("Network: link model must not be null");
  }
}

void Network::set_delay_factor(NodeId node, double factor) {
  assert(factor > 0.0);
  factors_.at(node) = factor;
}

void Network::set_failed(NodeId node, bool failed) {
  failed_.at(node) = failed;
}

bool Network::is_failed(NodeId node) const { return failed_.at(node); }

SimTime Network::sample_delay(NodeId from, NodeId to) {
  assert(from < factors_.size() && to < factors_.size());
  const double scale = factors_[from] * factors_[to];
  return SimTime(scale * link_model_->sample(rng_).seconds());
}

void Network::set_loss_probability(double p) {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("Network: loss probability in [0, 1)");
  }
  loss_ = p;
}

Network::SendPlan Network::plan_send(NodeId from, NodeId to) {
  const auto dropped = [&](obs::Counter* counter, const char* why) {
    ++dropped_;
    if (counter != nullptr) counter->inc();
    if (auto* t = obs_.trace()) {
      t->instant("net", why,
                 {{"from", static_cast<double>(from)},
                  {"to", static_cast<double>(to)}});
    }
    return SendPlan{false, SimTime::zero()};
  };
  assert(from < failed_.size() && to < failed_.size());
  if (failed_[from] || failed_[to]) {
    return dropped(obs_dropped_failed_, "net/drop_endpoint_failed");
  }
  if (loss_ > 0.0 && rng_.bernoulli(loss_)) {
    return dropped(obs_dropped_loss_, "net/drop_loss");
  }
  ++sent_;
  if (obs_sent_ != nullptr) obs_sent_->inc();
  const SimTime delay = sample_delay(from, to);
  if (obs_delay_ != nullptr) obs_delay_->observe(delay.seconds());
  return SendPlan{true, delay};
}

void Network::trace_delivery(NodeId from, NodeId to, SimTime delay) {
  if (auto* t = obs_.trace()) {
    t->complete("net", "net/deliver", delay.seconds(),
                {{"from", static_cast<double>(from)},
                 {"to", static_cast<double>(to)},
                 {"delay_s", delay.seconds()}});
  }
}

SimTime Network::ping_rtt(NodeId from, NodeId to) {
  const auto traced = [&](SimTime rtt) {
    if (obs_pings_ != nullptr) obs_pings_->inc();
    if (auto* t = obs_.trace()) {
      t->instant("net", "net/ping",
                 {{"from", static_cast<double>(from)},
                  {"to", static_cast<double>(to)},
                  {"rtt_s", rtt.is_infinite() ? -1.0 : rtt.seconds()}});
    }
    return rtt;
  };
  assert(from < failed_.size() && to < failed_.size());
  if (failed_[from] || failed_[to]) {
    return traced(SimTime::infinity());
  }
  return traced(sample_delay(from, to) + sample_delay(to, from));
}

}  // namespace mvcom::net
