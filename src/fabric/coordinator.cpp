#include "fabric/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fabric/worker.hpp"
#include "obs/metrics.hpp"

namespace mvcom::fabric {

namespace {
constexpr int kHelloTimeoutMs = 30000;
/// Deadline for one worker's epoch reply; past it the worker is declared
/// dead and its batch replayed on a fresh fork.
constexpr int kEpochTimeoutMs = 120000;
/// Deadline for a worker to exit on its shutdown frame before it is killed.
constexpr int kShutdownTimeoutMs = 10000;
/// Replacement-fork budget across the fabric's lifetime; exceeding it
/// throws (a worker crashing deterministically would loop forever).
constexpr std::uint64_t kMaxRespawns = 16;
}

ProcessFabric::ProcessFabric(FabricConfig config, obs::ObsContext obs)
    : config_(config), obs_(obs) {
  if (config_.workers == 0) {
    throw std::invalid_argument("ProcessFabric: workers >= 1");
  }
  members_.resize(config_.workers);
  for (std::size_t i = 0; i < members_.size(); ++i) spawn(i);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!await_hello(i)) {
      shutdown();
      throw std::runtime_error("ProcessFabric: worker failed to start");
    }
  }
}

ProcessFabric::~ProcessFabric() { shutdown(); }

void ProcessFabric::spawn(std::size_t index) {
  auto [coordinator_end, worker_end] = make_channel_pair();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("ProcessFabric: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Drop every inherited fabric descriptor except our own pipe:
    // holding a sibling's worker-end open would mask its death (the
    // coordinator would never see EOF).
    coordinator_end.close();
    for (Member& member : members_) member.channel.close();
    WorkerOptions options;
    options.index = static_cast<std::uint32_t>(index);
    options.count = obs_.metrics() != nullptr;
    const int rc = run_worker_loop(worker_end, options);
    // _exit, not exit: the child shares the parent's stdio buffers and
    // atexit registrations; flushing them here would duplicate output.
    ::_exit(rc);
  }
  worker_end.close();
  members_[index].pid = pid;
  members_[index].channel = std::move(coordinator_end);
  members_[index].alive = true;
}

bool ProcessFabric::await_hello(std::size_t index) {
  FrameView frame;
  const RecvStatus status =
      members_[index].channel.recv_frame(&frame, kHelloTimeoutMs);
  return status == RecvStatus::kOk && frame.type == FrameType::kHello;
}

void ProcessFabric::reap(std::size_t index) noexcept {
  Member& member = members_[index];
  member.channel.close();
  if (member.pid > 0) {
    ::kill(member.pid, SIGKILL);  // no-op if already gone
    int wstatus = 0;
    while (::waitpid(member.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    member.pid = -1;
  }
  member.alive = false;
}

void ProcessFabric::inject_kill(std::size_t worker_index,
                                std::uint64_t epoch) {
  if (worker_index >= members_.size()) {
    throw std::invalid_argument("ProcessFabric::inject_kill: bad worker");
  }
  pending_kills_.emplace_back(worker_index, epoch);
}

bool ProcessFabric::send_batch(std::size_t index,
                               std::span<const std::uint8_t> payload) {
  Member& member = members_[index];
  if (!member.alive) return false;
  member.channel.queue_frame(FrameType::kTaskBatch, payload);
  return member.channel.flush();
}

bool ProcessFabric::collect(std::size_t index, std::uint64_t epoch,
                            ResultBatch& reply) {
  Member& member = members_[index];
  if (!member.alive) return false;
  FrameView frame;
  const RecvStatus status =
      member.channel.recv_frame(&frame, kEpochTimeoutMs);
  if (status != RecvStatus::kOk || frame.type != FrameType::kResultBatch) {
    return false;
  }
  if (!decode_result_batch(frame.payload, reply)) return false;
  return reply.epoch == epoch;
}

void ProcessFabric::fold_obs(const ResultBatch& reply) {
  auto* metrics = obs_.metrics();
  if (metrics == nullptr) return;
  for (const CounterDelta& delta : reply.obs_deltas) {
    std::vector<obs::Label> labels;
    labels.reserve(delta.labels.size());
    for (const auto& [key, value] : delta.labels) {
      labels.push_back({key, value});
    }
    metrics->counter(delta.name, delta.help, std::move(labels))
        .add(delta.delta);
  }
}

void ProcessFabric::execute(std::vector<sharding::LaneTask>& tasks,
                            std::vector<sharding::LaneResult>& results) {
  const std::uint64_t epoch = epoch_++;
  const std::size_t fleet = members_.size();
  results.resize(tasks.size());

  // Partition: worker w owns every ARMED committee with id % fleet == w.
  // Unarmed lanes are no-ops — their default LaneResult (digest 0) is
  // synthesized here instead of burning wire bytes, exactly matching what
  // run_committee_lane returns for them.
  std::vector<TaskBatch> batches(fleet);
  std::vector<std::vector<std::uint8_t>> payloads(fleet);
  for (std::size_t c = 0; c < tasks.size(); ++c) {
    results[c] = sharding::LaneResult{};
    results[c].committee_id = tasks[c].committee_id;
    if (!tasks[c].armed) continue;
    batches[tasks[c].committee_id % fleet].tasks.push_back(tasks[c]);
  }
  for (std::size_t w = 0; w < fleet; ++w) {
    batches[w].epoch = epoch;
    encode_task_batch(payloads[w], batches[w]);
  }

  // Dispatch the whole epoch — one flush per worker — before collecting
  // anything, so the fleet computes concurrently.
  std::vector<std::uint8_t> dead(fleet, 0);
  for (std::size_t w = 0; w < fleet; ++w) {
    if (!send_batch(w, payloads[w])) dead[w] = 1;
  }

  // Deliberate chaos, armed by inject_kill: SIGKILL after dispatch, so the
  // victim dies holding (or mid-way through) this epoch's batch.
  for (auto it = pending_kills_.begin(); it != pending_kills_.end();) {
    if (it->second == epoch) {
      const std::size_t victim = it->first;
      if (members_[victim].alive && members_[victim].pid > 0) {
        ::kill(members_[victim].pid, SIGKILL);
      }
      it = pending_kills_.erase(it);
    } else {
      ++it;
    }
  }

  ResultBatch reply;
  for (std::size_t w = 0; w < fleet; ++w) {
    bool ok = dead[w] == 0 && collect(w, epoch, reply);
    while (!ok) {
      // Crash path: reap, respawn, replay the identical batch. Lanes are
      // pure in their task, so the replacement's results are bitwise-equal
      // to what the dead worker would have sent.
      if (respawns_ >= kMaxRespawns) {
        throw std::runtime_error(
            "ProcessFabric: worker respawn budget exhausted");
      }
      reap(w);
      spawn(w);
      ++respawns_;
      if (auto* m = obs_.metrics()) {
        m->counter("fabric_worker_respawns_total",
                   "Workers re-forked after death or timeout")
            .inc();
      }
      ok = await_hello(w) && send_batch(w, payloads[w]) &&
           collect(w, epoch, reply);
    }
    if (reply.results.size() != batches[w].tasks.size()) {
      throw std::runtime_error("ProcessFabric: result batch misaligned");
    }
    for (const sharding::LaneResult& result : reply.results) {
      if (result.committee_id >= results.size()) {
        throw std::runtime_error("ProcessFabric: result for unknown lane");
      }
      results[result.committee_id] = result;
    }
    fold_obs(reply);
  }
  if (auto* m = obs_.metrics()) {
    m->counter("fabric_epochs_total", "Epochs executed on the fabric").inc();
  }
}

void ProcessFabric::shutdown() noexcept {
  for (Member& member : members_) {
    if (!member.alive) continue;
    member.channel.queue_frame(FrameType::kShutdown, {});
    (void)member.channel.flush();
  }
  // Let every worker finish what it is doing and exit on the shutdown
  // frame, which reads as EOF here, so each is reaped after a clean exit.
  // reap() kills one that misses the deadline.
  for (Member& member : members_) {
    if (!member.alive) continue;
    FrameView frame;
    while (member.channel.recv_frame(&frame, kShutdownTimeoutMs) ==
           RecvStatus::kOk) {
    }
  }
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].alive || members_[i].pid > 0) reap(i);
  }
}

}  // namespace mvcom::fabric
