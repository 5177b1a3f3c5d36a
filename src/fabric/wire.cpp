#include "fabric/wire.hpp"

#include <bit>
#include <cstring>

#include "common/fnv.hpp"

namespace mvcom::fabric {

using common::SimTime;

namespace {

// Inner length prefixes (strings, vectors) share the frame-level cap: a
// single flipped length byte must fail decode, not provoke a giant reserve.
constexpr std::uint32_t kMaxInnerLength = kMaxFramePayload;

std::uint64_t payload_checksum(std::span<const std::uint8_t> payload) {
  return common::fnv1a_bytes(common::kFnv1aBasis, payload);
}

}  // namespace

// --- Writer ---------------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// --- Reader ---------------------------------------------------------------

bool Reader::u8(std::uint8_t& v) {
  if (at_ + 1 > data_.size()) return false;
  v = data_[at_++];
  return true;
}

bool Reader::u32(std::uint32_t& v) {
  if (at_ + 4 > data_.size()) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[at_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  at_ += 4;
  return true;
}

bool Reader::u64(std::uint64_t& v) {
  if (at_ + 8 > data_.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[at_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  at_ += 8;
  return true;
}

bool Reader::f64(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

bool Reader::str(std::string& s) {
  std::uint32_t n = 0;
  if (!u32(n)) return false;
  if (n > kMaxInnerLength || at_ + n > data_.size()) return false;
  s.assign(reinterpret_cast<const char*>(data_.data() + at_), n);
  at_ += n;
  return true;
}

// --- framing --------------------------------------------------------------

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(payload_checksum(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

ParseStatus parse_frame(std::span<const std::uint8_t> buf,
                        std::size_t* consumed, FrameView* frame) {
  const std::span<const std::uint8_t> rest = buf.subspan(*consumed);
  if (rest.size() < kFrameHeaderBytes) return ParseStatus::kNeedMore;
  Reader header(rest.first(kFrameHeaderBytes));
  std::uint32_t length = 0;
  std::uint8_t type = 0;
  std::uint64_t checksum = 0;
  // The header reads cannot fail (span is exactly kFrameHeaderBytes).
  (void)header.u32(length);
  (void)header.u8(type);
  (void)header.u64(checksum);
  if (length > kMaxFramePayload) return ParseStatus::kCorrupt;
  if (type != static_cast<std::uint8_t>(FrameType::kHello) &&
      type != static_cast<std::uint8_t>(FrameType::kTaskBatch) &&
      type != static_cast<std::uint8_t>(FrameType::kResultBatch) &&
      type != static_cast<std::uint8_t>(FrameType::kShutdown)) {
    return ParseStatus::kCorrupt;
  }
  if (rest.size() < kFrameHeaderBytes + length) return ParseStatus::kNeedMore;
  const std::span<const std::uint8_t> payload =
      rest.subspan(kFrameHeaderBytes, length);
  if (payload_checksum(payload) != checksum) return ParseStatus::kCorrupt;
  frame->type = static_cast<FrameType>(type);
  frame->payload = payload;
  *consumed += kFrameHeaderBytes + length;
  return ParseStatus::kOk;
}

// --- LaneTask / LaneResult ------------------------------------------------

void encode_task(Writer& w, const sharding::LaneTask& task) {
  w.u32(task.committee_id);
  w.u32(task.member_committees);
  w.u8(task.armed ? 1 : 0);
  w.u8(task.message_level_overlay ? 1 : 0);
  w.u32(task.num_nodes);
  w.f64(task.link_latency_mean.seconds());
  w.f64(task.message_loss_probability);
  w.f64(task.overlay_identity_processing.seconds());
  w.f64(task.pbft.view_change_timeout.seconds());
  w.f64(task.pbft.verification_mean.seconds());
  w.f64(task.pbft.horizon.seconds());
  w.str(task.randomness);
  w.u64(task.overlay_seed);
  w.u64(task.net_seed);
  w.u64(task.cluster_seed);
  w.f64(task.formation.seconds());
  w.u64(task.shard_txs);
  w.u32(static_cast<std::uint32_t>(task.participants.size()));
  for (const net::NodeId node : task.participants) w.u32(node);
  w.u32(static_cast<std::uint32_t>(task.ready_at.size()));
  for (const SimTime t : task.ready_at) w.f64(t.seconds());
  w.u32(static_cast<std::uint32_t>(task.verify_speeds.size()));
  for (const double v : task.verify_speeds) w.f64(v);
  w.u32(static_cast<std::uint32_t>(task.failed.size()));
  for (const std::uint8_t f : task.failed) w.u8(f);
}

bool decode_task(Reader& r, sharding::LaneTask& task) {
  std::uint8_t armed = 0;
  std::uint8_t overlay = 0;
  double link_mean = 0.0;
  double identity = 0.0;
  double view_change = 0.0;
  double verification = 0.0;
  double horizon = 0.0;
  double formation = 0.0;
  if (!r.u32(task.committee_id) || !r.u32(task.member_committees) ||
      !r.u8(armed) || !r.u8(overlay) || !r.u32(task.num_nodes) ||
      !r.f64(link_mean) || !r.f64(task.message_loss_probability) ||
      !r.f64(identity) || !r.f64(view_change) || !r.f64(verification) ||
      !r.f64(horizon) || !r.str(task.randomness) ||
      !r.u64(task.overlay_seed) || !r.u64(task.net_seed) ||
      !r.u64(task.cluster_seed) || !r.f64(formation) ||
      !r.u64(task.shard_txs)) {
    return false;
  }
  task.armed = armed != 0;
  task.message_level_overlay = overlay != 0;
  task.link_latency_mean = SimTime(link_mean);
  task.overlay_identity_processing = SimTime(identity);
  task.pbft.view_change_timeout = SimTime(view_change);
  task.pbft.verification_mean = SimTime(verification);
  task.pbft.horizon = SimTime(horizon);
  task.formation = SimTime(formation);

  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxInnerLength || r.remaining() < n * 4u) return false;
  task.participants.clear();
  task.participants.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net::NodeId node = 0;
    if (!r.u32(node)) return false;
    task.participants.push_back(node);
  }
  if (!r.u32(n) || n > kMaxInnerLength || r.remaining() < n * 8u) return false;
  task.ready_at.clear();
  task.ready_at.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    double t = 0.0;
    if (!r.f64(t)) return false;
    task.ready_at.push_back(SimTime(t));
  }
  if (!r.u32(n) || n > kMaxInnerLength || r.remaining() < n * 8u) return false;
  task.verify_speeds.clear();
  task.verify_speeds.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    double v = 0.0;
    if (!r.f64(v)) return false;
    task.verify_speeds.push_back(v);
  }
  if (!r.u32(n) || n > kMaxInnerLength || r.remaining() < n) return false;
  task.failed.clear();
  task.failed.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t f = 0;
    if (!r.u8(f)) return false;
    task.failed.push_back(f);
  }
  return true;
}

void encode_result(Writer& w, const sharding::LaneResult& result) {
  w.u32(result.committee_id);
  w.u8(result.formed ? 1 : 0);
  w.u8(result.committed ? 1 : 0);
  w.f64(result.formation.seconds());
  w.f64(result.consensus_latency.seconds());
  w.u64(result.view_changes);
  w.u64(result.order_digest);
  w.u64(result.events_executed);
}

bool decode_result(Reader& r, sharding::LaneResult& result) {
  std::uint8_t formed = 0;
  std::uint8_t committed = 0;
  double formation = 0.0;
  double latency = 0.0;
  if (!r.u32(result.committee_id) || !r.u8(formed) || !r.u8(committed) ||
      !r.f64(formation) || !r.f64(latency) || !r.u64(result.view_changes) ||
      !r.u64(result.order_digest) || !r.u64(result.events_executed)) {
    return false;
  }
  result.formed = formed != 0;
  result.committed = committed != 0;
  result.formation = SimTime(formation);
  result.consensus_latency = SimTime(latency);
  return true;
}

// --- batches --------------------------------------------------------------

void encode_task_batch(std::vector<std::uint8_t>& out, const TaskBatch& batch) {
  Writer w(out);
  w.u64(batch.epoch);
  w.u32(static_cast<std::uint32_t>(batch.tasks.size()));
  for (const sharding::LaneTask& task : batch.tasks) encode_task(w, task);
}

bool decode_task_batch(std::span<const std::uint8_t> payload,
                       TaskBatch& batch) {
  Reader r(payload);
  std::uint32_t n = 0;
  if (!r.u64(batch.epoch) || !r.u32(n) || n > kMaxInnerLength) return false;
  batch.tasks.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!decode_task(r, batch.tasks[i])) return false;
  }
  return r.done();
}

void encode_result_batch(std::vector<std::uint8_t>& out,
                         const ResultBatch& batch) {
  Writer w(out);
  w.u64(batch.epoch);
  w.u32(static_cast<std::uint32_t>(batch.results.size()));
  for (const sharding::LaneResult& result : batch.results) {
    encode_result(w, result);
  }
  w.u32(static_cast<std::uint32_t>(batch.obs_deltas.size()));
  for (const CounterDelta& d : batch.obs_deltas) {
    w.str(d.name);
    w.str(d.help);
    w.u32(static_cast<std::uint32_t>(d.labels.size()));
    for (const auto& [key, value] : d.labels) {
      w.str(key);
      w.str(value);
    }
    w.u64(d.delta);
  }
}

bool decode_result_batch(std::span<const std::uint8_t> payload,
                         ResultBatch& batch) {
  Reader r(payload);
  std::uint32_t n = 0;
  if (!r.u64(batch.epoch) || !r.u32(n) || n > kMaxInnerLength) return false;
  batch.results.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!decode_result(r, batch.results[i])) return false;
  }
  if (!r.u32(n) || n > kMaxInnerLength) return false;
  batch.obs_deltas.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    CounterDelta& d = batch.obs_deltas[i];
    std::uint32_t labels = 0;
    if (!r.str(d.name) || !r.str(d.help) || !r.u32(labels) ||
        labels > kMaxInnerLength) {
      return false;
    }
    d.labels.resize(labels);
    for (std::uint32_t j = 0; j < labels; ++j) {
      if (!r.str(d.labels[j].first) || !r.str(d.labels[j].second)) {
        return false;
      }
    }
    if (!r.u64(d.delta)) return false;
  }
  return r.done();
}

}  // namespace mvcom::fabric
