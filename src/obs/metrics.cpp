#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mvcom::obs {

namespace {

/// Relaxed atomic double accumulation via CAS (fetch_add on atomic<double>
/// is C++20 but not universally lock-free yet; this is).
void atomic_add(std::atomic<double>& a, double d) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

/// Stable per-thread stripe: each new thread takes the next stripe index,
/// so up to kShards concurrent writers touch distinct cache lines.
std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

/// Every histogram's finite bucket bounds: kBucketLowest · kBucketGrowth^i
/// for i < kBucketCount.
constexpr double kBucketLowest = 1e-3;
constexpr double kBucketGrowth = 2.0;
constexpr std::size_t kBucketCount = 18;

std::string label_suffix(const std::vector<Label>& labels) {
  std::string out;
  for (const Label& l : labels) {
    out += '\0';
    out += l.key;
    out += '\0';
    out += l.value;
  }
  return out;
}

}  // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

bool valid_label_name(std::string_view key) noexcept {
  return valid_metric_name(key) && key.find(':') == std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

void Counter::add(std::uint64_t n) noexcept {
  shards_[thread_stripe() % kShards].value.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

LogHistogram::LogHistogram() {
  bounds_.reserve(kBucketCount);
  double bound = kBucketLowest;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    bounds_.push_back(bound);
    bound *= kBucketGrowth;
  }
  counts_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void LogHistogram::observe(double v) noexcept {
  // NaN observations would poison the sum and fit no bucket; drop them.
  if (std::isnan(v)) return;
  std::size_t idx = bounds_.size();  // +Inf bucket
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      idx = i;
      break;
    }
  }
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

double LogHistogram::upper_bound(std::size_t i) const {
  if (i < bounds_.size()) return bounds_[i];
  if (i == bounds_.size()) return std::numeric_limits<double>::infinity();
  throw std::out_of_range("LogHistogram::upper_bound");
}

std::uint64_t LogHistogram::bucket_value(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("LogHistogram::bucket_value");
  return counts_[i].load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::entry_for(
    std::string_view name, std::string_view help, std::vector<Label>&& labels,
    Type type) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + std::string(name));
  }
  for (const Label& l : labels) {
    if (!valid_label_name(l.key)) {
      throw std::invalid_argument("invalid label name: " + l.key);
    }
  }
  std::string key(name);
  key += label_suffix(labels);

  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      throw std::invalid_argument("metric re-registered with another type: " +
                                  std::string(name));
    }
    return it->second;
  }
  Entry entry;
  entry.type = type;
  entry.help = std::string(help);
  entry.labels = std::move(labels);
  switch (type) {
    case Type::kCounter:
      entry.counter.reset(new Counter());
      break;
    case Type::kGauge:
      entry.gauge.reset(new Gauge());
      break;
    case Type::kHistogram:
      entry.histogram.reset(new LogHistogram());
      break;
  }
  return entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::vector<Label> labels) {
  return *entry_for(name, help, std::move(labels), Type::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::vector<Label> labels) {
  return *entry_for(name, help, std::move(labels), Type::kGauge).gauge;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name,
                                         std::string_view help) {
  return *entry_for(name, help, {}, Type::kHistogram).histogram;
}

std::vector<MetricsRegistry::MetricSnapshot> MetricsRegistry::snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = key.substr(0, key.find('\0'));
    snap.help = entry.help;
    snap.type = entry.type;
    snap.labels = entry.labels;
    switch (entry.type) {
      case Type::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case Type::kGauge:
        snap.value = entry.gauge->value();
        break;
      case Type::kHistogram: {
        const LogHistogram& h = *entry.histogram;
        std::uint64_t cumulative = 0;
        snap.buckets.reserve(h.bucket_count());
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          cumulative += h.bucket_value(i);
          snap.buckets.push_back({h.upper_bound(i), cumulative});
        }
        snap.sum = h.total_sum();
        snap.count = h.total_count();
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  // std::map iteration is already name-then-labels ordered via the key.
  return out;
}

}  // namespace mvcom::obs
