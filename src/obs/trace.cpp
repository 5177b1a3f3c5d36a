#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/fnv.hpp"

namespace mvcom::obs {

namespace {
constexpr double kNoSimTime = std::numeric_limits<double>::quiet_NaN();

void fill_args(TraceEvent& event, std::initializer_list<TraceArg> args) {
  std::size_t n = 0;
  for (const TraceArg& a : args) {
    if (n == TraceEvent::kMaxArgs) break;  // excess args are dropped
    event.args[n++] = a;
  }
}
}  // namespace

std::uint64_t events_digest(std::span<const TraceEvent> events) noexcept {
  std::uint64_t h = common::kFnv1aBasis;
  const auto mix_u64 = [&h](std::uint64_t v) { h = common::fnv1a_u64(h, v); };
  const auto mix_double = [&](double d) {
    // NaN sim times (no sim clock) digest as one canonical pattern.
    mix_u64(d != d ? 0x7ff8000000000000ULL : std::bit_cast<std::uint64_t>(d));
  };
  const auto mix_str = [&h](const char* s) {
    if (s != nullptr) h = common::fnv1a_bytes(h, std::string_view(s));
    h = common::fnv1a_byte(h, 0);  // terminator keeps ("ab","c") != ("a","bc")
  };
  for (const TraceEvent& e : events) {
    mix_str(e.category);
    mix_str(e.name);
    h = common::fnv1a_byte(h, static_cast<std::uint8_t>(e.phase));
    mix_u64(e.track);
    mix_double(e.sim_time_seconds);
    mix_double(e.duration_seconds);
    mix_u64(e.seq);
    const std::size_t n = e.arg_count();
    mix_u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      mix_str(e.args[i].key);
      mix_double(e.args[i].value);
    }
  }
  return h;
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  if (capacity_ == 0) {
    throw std::invalid_argument("TraceRecorder: capacity must be >= 1");
  }
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceRecorder::set_sim_clock(std::function<double()> now_seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  sim_clock_ = std::move(now_seconds);
}

double TraceRecorder::wall_now_us() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

double TraceRecorder::sim_now_locked() const {
  return sim_clock_ ? sim_clock_() : kNoSimTime;
}

void TraceRecorder::append_locked(TraceEvent&& event) {
  event.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceRecorder::record(TraceEvent event) {
  event.wall_time_us = wall_now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  event.sim_time_seconds = sim_now_locked();
  append_locked(std::move(event));
}

void TraceRecorder::instant(const char* category, const char* name,
                            std::initializer_list<TraceArg> args,
                            std::uint32_t track) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'i';
  event.track = track;
  fill_args(event, args);
  record(event);
}

void TraceRecorder::complete(const char* category, const char* name,
                             double duration_seconds,
                             std::initializer_list<TraceArg> args,
                             std::uint32_t track) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'X';
  event.track = track;
  event.duration_seconds = duration_seconds;
  fill_args(event, args);
  record(event);
}

void TraceRecorder::counter(const char* category, const char* name,
                            std::initializer_list<TraceArg> args,
                            std::uint32_t track) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'C';
  event.track = track;
  fill_args(event, args);
  record(event);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

std::uint64_t TraceRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t TraceRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace mvcom::obs
