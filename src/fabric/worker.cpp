#include "fabric/worker.hpp"

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sharding/lane.hpp"

namespace mvcom::fabric {

namespace {

/// Stable identity of a counter family instance for delta tracking.
std::string counter_key(const obs::MetricsRegistry::MetricSnapshot& snap) {
  std::string key = snap.name;
  for (const obs::Label& label : snap.labels) {
    key += '\0';
    key += label.key;
    key += '\0';
    key += label.value;
  }
  return key;
}

}  // namespace

int run_worker_loop(Channel& channel, const WorkerOptions& options) noexcept {
  // A worker that does not count leaves the registry empty, so its
  // snapshot below ships no deltas.
  obs::MetricsRegistry registry;
  const obs::ObsContext obs(options.count ? &registry : nullptr, nullptr);
  // Last-sent absolute value per counter — deltas are "what this epoch
  // added", so the coordinator's fold equals one shared registry's totals.
  std::map<std::string, std::uint64_t> sent;

  // Arenas reused across epochs.
  TaskBatch batch;
  ResultBatch reply;
  std::vector<std::uint8_t> payload;

  // Announce readiness; the coordinator blocks on this before dispatching.
  {
    payload.clear();
    Writer w(payload);
    w.u32(options.index);
    channel.queue_frame(FrameType::kHello, payload);
    if (!channel.flush()) return 1;
  }

  for (;;) {
    FrameView frame;
    const RecvStatus status = channel.recv_frame(&frame, /*timeout_ms=*/-1);
    if (status == RecvStatus::kEof) return 0;  // coordinator went away
    if (status != RecvStatus::kOk) return 1;
    if (frame.type == FrameType::kShutdown) return 0;
    if (frame.type != FrameType::kTaskBatch) return 1;
    if (!decode_task_batch(frame.payload, batch)) return 1;

    reply.epoch = batch.epoch;
    reply.results.resize(batch.tasks.size());
    for (std::size_t i = 0; i < batch.tasks.size(); ++i) {
      // Serial on purpose: the worker process IS the parallelism unit.
      reply.results[i] = sharding::run_committee_lane(batch.tasks[i], obs);
    }
    if (auto* m = obs.metrics()) {
      m->counter("fabric_worker_epochs_total",
                 "Epochs this worker processed",
                 {{"worker", std::to_string(options.index)}})
          .inc();
      m->counter("fabric_worker_lanes_total",
                 "Committee lanes this worker ran",
                 {{"worker", std::to_string(options.index)}})
          .add(batch.tasks.size());
    }

    // Counter deltas since the last reply. Gauges and histograms stay
    // local: they are not additive across processes.
    reply.obs_deltas.clear();
    for (const auto& snap : registry.snapshot()) {
      if (snap.type != obs::MetricsRegistry::Type::kCounter) continue;
      const auto value = static_cast<std::uint64_t>(snap.value);
      std::uint64_t& last = sent[counter_key(snap)];
      if (value == last) continue;
      CounterDelta delta;
      delta.name = snap.name;
      delta.help = snap.help;
      for (const obs::Label& label : snap.labels) {
        delta.labels.emplace_back(label.key, label.value);
      }
      delta.delta = value - last;
      last = value;
      reply.obs_deltas.push_back(std::move(delta));
    }

    payload.clear();
    encode_result_batch(payload, reply);
    channel.queue_frame(FrameType::kResultBatch, payload);
    if (!channel.flush()) return 0;  // coordinator died mid-epoch
  }
}

}  // namespace mvcom::fabric
