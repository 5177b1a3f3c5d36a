#pragma once
// TraceRecorder — a lock-cheap, fixed-capacity ring buffer of structured
// trace events, dual-clocked:
//
//  * wall time  — microseconds on std::chrono::steady_clock since the
//    recorder was constructed; stamped on every event.
//  * sim time   — seconds on the discrete-event simulator's clock, stamped
//    whenever a sim clock is attached (set_sim_clock); NaN otherwise.
//    Standalone SE runs have no simulator, so their events carry wall time
//    only; anything driven by sim::Simulator gets both.
//
// Recording takes one short mutex-protected append (the DES path is
// single-threaded; the Γ-parallel SE path never records from workers — it
// accumulates per-thread tallies and the scheduler materializes events at
// the cooperation barrier, mirroring SeBlockStats). When the ring is full
// the oldest events are overwritten and counted as dropped: tracing must
// never turn into an unbounded allocation in a long run.
//
// Events map 1:1 onto the Chrome trace-event JSON that obs/export.hpp
// writes (loadable in Perfetto / chrome://tracing): phase 'i' = instant,
// 'X' = complete (with duration), 'C' = counter series.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <span>
#include <vector>

#include "obs/context.hpp"

namespace mvcom::obs {

/// One numeric event argument. Keys must be static-lifetime strings (string
/// literals at instrumentation sites) — events are POD and never own memory.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 4;

  const char* category = "";  // static-lifetime, e.g. "se", "epoch"
  const char* name = "";      // static-lifetime event name
  char phase = 'i';           // 'i' instant | 'X' complete | 'C' counter
  std::uint32_t track = 0;    // exported as tid (0 = main track)
  double sim_time_seconds = 0.0;  // NaN when no sim clock was attached
  double wall_time_us = 0.0;
  double duration_seconds = 0.0;  // 'X' only, in the event's clock domain
  std::uint64_t seq = 0;          // recorder-global order
  std::array<TraceArg, kMaxArgs> args{};

  [[nodiscard]] std::size_t arg_count() const noexcept {
    std::size_t n = 0;
    while (n < kMaxArgs && args[n].key != nullptr) ++n;
    return n;
  }
};

/// FNV-1a digest over every deterministic field of the events — category,
/// name, phase, track, sim time, duration, sequence number, and args — and
/// deliberately NOT wall_time_us, which differs between runs. Two runs of
/// the same seeded workload must produce the same digest: the adversarial
/// replay harness uses it as the bit-identical-event-stream witness.
[[nodiscard]] std::uint64_t events_digest(
    std::span<const TraceEvent> events) noexcept;

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  /// Attaches/detaches the simulated clock (seconds). The recorder stamps
  /// every subsequent event with it. The callable must outlive its
  /// attachment — detach (pass nullptr) before the simulator dies.
  void set_sim_clock(std::function<double()> now_seconds);

  /// Records one event; clocks and sequence number are stamped here.
  void record(TraceEvent event);

  // Convenience shapes.
  void instant(const char* category, const char* name,
               std::initializer_list<TraceArg> args = {},
               std::uint32_t track = 0);
  /// A span of `duration_seconds` ending now (record at completion — the
  /// single-pass DES never needs open/close pairs).
  void complete(const char* category, const char* name,
                double duration_seconds,
                std::initializer_list<TraceArg> args = {},
                std::uint32_t track = 0);
  /// A counter sample: each arg becomes one series on the track's counter.
  void counter(const char* category, const char* name,
               std::initializer_list<TraceArg> args,
               std::uint32_t track = 0);

  /// The retained events in record order (oldest first).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::uint64_t recorded() const;
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Microseconds since construction — the wall clock events are stamped on.
  [[nodiscard]] double wall_now_us() const;

 private:
  void append_locked(TraceEvent&& event);
  [[nodiscard]] double sim_now_locked() const;

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  std::size_t head_ = 0;          // next write position once full
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::function<double()> sim_clock_;
};

}  // namespace mvcom::obs
