#pragma once
// MetricsRegistry — cheap, thread-safe instruments for the whole stack:
// sharded counters (striped atomics so Γ worker threads never contend on
// one cache line), gauges, and log-bucketed histograms (geometric bucket
// bounds — latencies and sizes span orders of magnitude, so fixed-width
// bins would waste most of their resolution).
//
// Instruments are registered by (name, labels) and live as long as the
// registry; call sites cache the returned reference and update it lock-free.
// Names follow the Prometheus data model (family name + label pairs), so a
// snapshot exports losslessly to the text exposition format (obs/export.hpp).
//
// Hot-path policy: an instrument update is one relaxed atomic RMW. Code
// hotter than that (the SE inner loop) must not touch instruments per
// event — it accumulates plain thread-local tallies and folds them into the
// registry at its natural synchronization points (see SeObsCounters).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

namespace mvcom::obs {

/// One Prometheus label pair. Keys must match [a-zA-Z_][a-zA-Z0-9_]*.
struct Label {
  std::string key;
  std::string value;
};

/// Monotonic counter, striped over cache-line-sized shards: concurrent
/// add() calls from different threads usually hit different lines.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  void inc() noexcept { add(1); }
  /// Sum over shards. Monotone but not a snapshot under concurrent adds.
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  friend class MetricsRegistry;
  Counter() = default;

  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins double gauge.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Histogram with geometric (log-spaced) bucket upper bounds:
///   le_i = 1e-3 · 2^i, i < 18 (1 ms to about 131 s),
/// plus the implicit +Inf bucket. observe() is one relaxed RMW per call
/// after a short bounded scan for the bucket index.
class LogHistogram {
 public:
  void observe(double v) noexcept;

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();  // includes the +Inf bucket
  }
  /// Upper bound of bucket `i`; +Inf for the last.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  /// Non-cumulative count of bucket `i`.
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const;
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double total_sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  LogHistogram();

  std::vector<double> bounds_;  // finite upper bounds, ascending
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns every instrument; hands out stable references. Registration takes a
/// mutex; instrument updates never do. Re-registering the same
/// (name, labels) returns the existing instrument; registering the same
/// name with a different instrument type throws.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help = "",
                   std::vector<Label> labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = "",
               std::vector<Label> labels = {});
  LogHistogram& histogram(std::string_view name, std::string_view help = "");

  enum class Type { kCounter, kGauge, kHistogram };

  /// Point-in-time copy of one instrument, ready for export.
  struct MetricSnapshot {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::vector<Label> labels;
    double value = 0.0;  // counter / gauge
    struct Bucket {
      double upper_bound = 0.0;  // +Inf for the last
      std::uint64_t cumulative = 0;
    };
    std::vector<Bucket> buckets;  // histogram only; cumulative counts
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  /// All instruments, sorted by (name, labels) so exports are deterministic.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Entry {
    Type type;
    std::string help;
    std::vector<Label> labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> histogram;
  };

  Entry& entry_for(std::string_view name, std::string_view help,
                   std::vector<Label>&& labels, Type type);

  mutable std::mutex mu_;
  // Key: name + '\0' + serialized labels — unique per (family, label set).
  std::map<std::string, Entry, std::less<>> entries_;
};

/// True iff `name` is a valid Prometheus metric name
/// ([a-zA-Z_:][a-zA-Z0-9_:]*).
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;
/// True iff `key` is a valid Prometheus label name ([a-zA-Z_][a-zA-Z0-9_]*).
[[nodiscard]] bool valid_label_name(std::string_view key) noexcept;

}  // namespace mvcom::obs
