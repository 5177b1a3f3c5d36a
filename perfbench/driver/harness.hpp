#pragma once
// Shared pieces of the benchmark driver: options, wall clocks, the result
// record, in-memory spans, percentiles and host facts.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// The untraced phase of a traced run holds at least this many ops, so its
/// p90 has at least ten samples beyond it.
inline constexpr std::size_t kMinTimedOps = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test sizing: a few ops per phase, so all workloads pass in seconds.
  bool tiny = false;
  /// Negative-test hook: corrupts one output before the checks run
  /// ("lane" tampers a lane result, "eq4" an epoch's committed count,
  /// "digest" a campaign replay). The run must then exit non-zero.
  std::string tamper;
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `problems` lists every failed correctness check;
/// the run is correct iff it is empty.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;
  std::vector<double> op_walls;  // timed ops, written to the result file

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double sum(const std::vector<double>& samples);

/// Peak resident set of this process plus its live children, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Records the end-to-end metrics every workload shares from its timed ops.
/// `peak_rss` is sampled once the fixed guard prefix of ops is done: state
/// such as a root chain grows with every op, so a later sample would grow
/// with the speed of the run.
void set_op_metrics(Result& result, const std::vector<double>& op_walls,
                    double committed, const std::vector<double>& setups,
                    double peak_rss);

/// Spans kept in memory and written once at exit. A span is a layer when
/// its self time counts toward coverage; op and grouping spans are not.
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  bool layer = true;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span; the returned id closes it. Thread-safe.
  int begin(const std::string& name, std::uint64_t op, int parent,
            bool layer = true);
  void end(int id);

  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t op,
          int parent, bool layer = true)
        : tracer_(tracer), id_(tracer.begin(name, op, parent, layer)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.end(id_); }
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Σ self time (duration minus direct children) of spans named `name`.
  [[nodiscard]] double self_seconds(const std::string& name) const;
  /// Σ duration of spans named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// Durations of spans named `name`, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Σ self time of every layer span / Σ duration of spans named `op_name`.
  [[nodiscard]] double coverage(const std::string& op_name) const;

  /// Writes every span as JSON to `path`, creating its directory.
  void write(const std::string& path) const;

 private:
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Σ of every counter named `name` in `registry`; with `label_value`, only
/// the series carrying a label with that value.
[[nodiscard]] double counter_total(const mvcom::obs::MetricsRegistry& registry,
                                   const std::string& name,
                                   const std::string& label_value = "");

/// Host and build facts stamped on every result.
[[nodiscard]] std::string host_facts_json();

/// Creates `dir` (and parents) when missing.
void ensure_directory(const std::string& dir);

}  // namespace perfbench
