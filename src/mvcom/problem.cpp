#include "mvcom/problem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace mvcom::core {

EpochInstance::EpochInstance(std::vector<Committee> committees, double alpha,
                             std::uint64_t capacity, std::size_t n_min,
                             double deadline)
    : committees_(std::move(committees)),
      alpha_(alpha),
      capacity_(capacity),
      n_min_(n_min),
      deadline_(deadline) {
  if (committees_.empty()) {
    throw std::invalid_argument("EpochInstance: no committees");
  }
  if (!(alpha_ > 0.0)) {
    throw std::invalid_argument("EpochInstance: alpha must be positive");
  }
  // Reject adversarial shard sizes whose total would wrap std::uint64_t:
  // downstream bookkeeping (smallest-prefix feasibility tests, incremental
  // Σ s maintenance in the SE solvers) sums subsets unchecked and a wrapped
  // total could mark infeasible cardinalities active.
  for (const Committee& c : committees_) {
    if (c.txs > std::numeric_limits<std::uint64_t>::max() - total_txs_) {
      throw std::invalid_argument(
          "EpochInstance: total shard size overflows 64-bit accounting");
    }
    total_txs_ += c.txs;
  }
  if (deadline_ < 0.0) {
    // t_j = max_{i∈I_j} l_i (paper §III-A).
    deadline_ = 0.0;
    for (const Committee& c : committees_) {
      deadline_ = std::max(deadline_, c.latency);
    }
  }
}

EpochInstance EpochInstance::from_reports(
    std::span<const txn::ShardReport> reports, double alpha,
    std::uint64_t capacity, std::size_t n_min, double deadline) {
  std::vector<Committee> committees;
  committees.reserve(reports.size());
  for (const txn::ShardReport& r : reports) {
    committees.push_back({r.committee_id, r.tx_count, r.two_phase_latency()});
  }
  return EpochInstance(std::move(committees), alpha, capacity, n_min, deadline);
}

double EpochInstance::utility(const Selection& x) const {
  assert(x.size() == committees_.size());
  double u = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) u += gain(i);
  }
  return u;
}

SelectionStats EpochInstance::stats(const Selection& x) const {
  assert(x.size() == committees_.size());
  SelectionStats st;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) {
      ++st.chosen;
      st.txs += committees_[i].txs;
    }
  }
  return st;
}

double EpochInstance::valuable_degree(const Selection& x,
                                      double age_floor) const {
  assert(x.size() == committees_.size());
  assert(age_floor > 0.0);
  double degree = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!x[i]) continue;
    degree += static_cast<double>(committees_[i].txs) /
              std::max(age(i), age_floor);
  }
  return degree;
}

std::uint64_t EpochInstance::permitted_txs(const Selection& x) const {
  assert(x.size() == committees_.size());
  std::uint64_t txs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) txs += committees_[i].txs;
  }
  return txs;
}

double EpochInstance::cumulative_age(const Selection& x) const {
  assert(x.size() == committees_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) total += age(i);
  }
  return total;
}

namespace {

/// The positive-gain committees in descending gain/s_i order, ties by index:
/// the walk of Lemma 1's knapsack that fractional_bound and greedy share.
std::vector<std::uint32_t> ratio_order(const EpochInstance& instance) {
  struct Item {
    double ratio;  // gain per TX; +∞ for a positive-gain zero-TX committee
    std::uint32_t index;
  };
  std::vector<Item> items;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const double gain = instance.gain(i);
    if (gain <= 0.0) continue;
    const std::uint64_t txs = instance.committees()[i].txs;
    // A zero-TX committee's gain is −(t − l_i) ≤ 0 under the derived
    // deadline; only an explicit deadline below l_i makes it positive, and
    // then it costs no capacity.
    items.push_back({txs == 0 ? std::numeric_limits<double>::infinity()
                              : gain / static_cast<double>(txs),
                     static_cast<std::uint32_t>(i)});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.ratio != b.ratio ? a.ratio > b.ratio : a.index < b.index;
  });
  std::vector<std::uint32_t> order;
  order.reserve(items.size());
  for (const Item& item : items) order.push_back(item.index);
  return order;
}

}  // namespace

double fractional_bound(const EpochInstance& instance) {
  double bound = 0.0;
  std::uint64_t room = instance.capacity();
  for (const std::uint32_t i : ratio_order(instance)) {
    const std::uint64_t txs = instance.committees()[i].txs;
    const double gain = instance.gain(i);
    if (txs <= room) {
      bound += gain;
      room -= txs;
    } else {
      bound += gain * (static_cast<double>(room) / static_cast<double>(txs));
      break;
    }
  }
  return bound;
}

bool certifies(double bound, double utility, double tolerance) noexcept {
  return tolerance > 0.0 && bound - utility <= tolerance * std::fabs(bound);
}

Selection greedy(const EpochInstance& instance) {
  Selection x(instance.size(), 0);
  std::uint64_t room = instance.capacity();
  for (const std::uint32_t i : ratio_order(instance)) {
    const std::uint64_t txs = instance.committees()[i].txs;
    if (txs > room) continue;
    x[i] = 1;
    room -= txs;
  }
  return top_up(instance, std::move(x));
}

Selection top_up(const EpochInstance& instance, Selection x) {
  SelectionStats st = instance.stats(x);
  if (st.chosen >= instance.n_min()) return x;
  std::vector<std::uint32_t> unselected;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0) unselected.push_back(static_cast<std::uint32_t>(i));
  }
  const auto& committees = instance.committees();
  std::sort(unselected.begin(), unselected.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return committees[a].txs != committees[b].txs
                         ? committees[a].txs < committees[b].txs
                         : a < b;
            });
  for (const std::uint32_t i : unselected) {
    if (st.chosen >= instance.n_min()) break;
    // Ascending sizes: once one does not fit, nothing later does.
    if (st.txs + committees[i].txs > instance.capacity()) break;
    x[i] = 1;
    ++st.chosen;
    st.txs += committees[i].txs;
  }
  if (st.chosen < instance.n_min()) return {};
  return x;
}

std::optional<Selection> n_min_witness(
    std::span<const txn::ShardReport> reports, std::uint64_t capacity,
    std::size_t n_min) {
  if (n_min > reports.size()) return std::nullopt;
  Selection x(reports.size(), 0);
  if (n_min == 0) return x;
  std::vector<std::size_t> order(reports.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Only the N_min smallest matter — a partial select keeps this O(|I|) at
  // 50k committees. Ties break by index so the witness is deterministic.
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(n_min - 1),
                   order.end(), [&](std::size_t a, std::size_t b) {
                     const std::uint64_t ta = reports[a].tx_count;
                     const std::uint64_t tb = reports[b].tx_count;
                     return ta != tb ? ta < tb : a < b;
                   });
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < n_min; ++k) {
    const std::uint64_t txs = reports[order[k]].tx_count;
    if (txs > capacity - total) return std::nullopt;  // overflow-safe
    total += txs;
    x[order[k]] = 1;
  }
  return x;
}

double relative_gap(double bound, double utility) noexcept {
  if (bound == 0.0) {
    return utility >= 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return (bound - utility) / std::fabs(bound);
}

}  // namespace mvcom::core
