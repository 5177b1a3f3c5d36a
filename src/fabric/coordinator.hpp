#pragma once
// ProcessFabric — the coordinator side of the multi-process shard fabric
// (DESIGN.md §17).
//
// The fabric reuses `ElasticoNetwork::run_epoch`'s determinism contract one
// level up: the coordinator (running stages 1, 2-closed-form, 4 and 5)
// draws every lane's RNG seeds serially in committee order BEFORE any
// dispatch, ships each worker its committees (committee_id mod workers) as
// one binary TaskBatch frame, and merges the returned LaneResults back in
// committee order. Workers share nothing — no memory, no RNG, no clock —
// so a 2-process epoch is bitwise-identical to the in-process lane pool,
// `event_order_digest` included.
//
// Crash recovery is replay, not checkpointing: lanes are pure functions of
// their task, so when a worker dies (EOF on its pipe, or an epoch
// timeout), the coordinator reaps it, forks a replacement, resends the SAME
// TaskBatch, and the replacement reproduces the dead worker's results
// exactly. `inject_kill` schedules a deliberate SIGKILL after dispatch of a
// chosen epoch — the chaos-test hook proving recovery preserves digests.
//
// Fork discipline: workers are forked WITHOUT exec, so the coordinator
// must be single-threaded at spawn time: no thread pool may be alive when
// a ProcessFabric is constructed or respawns a worker. The fabric's own
// lanes need none (its executor replaces any pool lent to the network),
// and its callers — test_fabric and perfbench's `lanes_*` workloads — start
// no pool while a fabric lives. Children close every inherited fabric
// descriptor except their own pipe — otherwise a sibling's death would
// never surface as EOF.

#include <cstdint>
#include <sys/types.h>
#include <vector>

#include "fabric/transport.hpp"
#include "obs/context.hpp"
#include "sharding/elastico.hpp"

namespace mvcom::fabric {

struct FabricConfig {
  /// Worker processes. Committee c runs on worker (c % workers).
  std::size_t workers = 2;
};

class ProcessFabric {
 public:
  /// Forks the worker fleet immediately; blocks until every worker says
  /// hello. `obs` receives coordinator-side fabric counters and the folded
  /// worker counter deltas. Workers count their lanes only when `obs` has a
  /// registry; otherwise nobody would read what they count.
  explicit ProcessFabric(FabricConfig config, obs::ObsContext obs = {});
  ProcessFabric(const ProcessFabric&) = delete;
  ProcessFabric& operator=(const ProcessFabric&) = delete;
  ~ProcessFabric();

  /// The LaneExecutor to install on an ElasticoNetwork: ships `tasks` to
  /// the fleet, fills `results` (1:1, by committee id). Throws only when
  /// the respawn budget is exhausted.
  void execute(std::vector<sharding::LaneTask>& tasks,
               std::vector<sharding::LaneResult>& results);

  /// Convenience adapter for ElasticoNetwork::set_lane_executor.
  [[nodiscard]] sharding::LaneExecutor executor() {
    return [this](std::vector<sharding::LaneTask>& tasks,
                  std::vector<sharding::LaneResult>& results) {
      execute(tasks, results);
    };
  }

  /// Schedules a SIGKILL of worker `worker_index` right after the dispatch
  /// of epoch `epoch` (0-based execute() call count) — deterministic chaos
  /// for the recovery tests.
  void inject_kill(std::size_t worker_index, std::uint64_t epoch);

  /// Graceful teardown: shutdown frames, a bounded wait for each worker to
  /// exit on its own (so it is reaped, not killed mid-epoch), close pipes,
  /// reap children. Idempotent; the destructor calls it.
  void shutdown() noexcept;

  [[nodiscard]] std::uint64_t respawns() const noexcept { return respawns_; }

 private:
  struct Member {
    pid_t pid = -1;
    Channel channel;
    bool alive = false;
  };

  void spawn(std::size_t index);
  void reap(std::size_t index) noexcept;
  /// Sends `payload` (a complete TaskBatch body) to member `index`.
  [[nodiscard]] bool send_batch(std::size_t index,
                                std::span<const std::uint8_t> payload);
  /// Waits for member `index`'s ResultBatch for `epoch`; false = dead.
  [[nodiscard]] bool collect(std::size_t index, std::uint64_t epoch,
                             ResultBatch& reply);
  void fold_obs(const ResultBatch& reply);
  [[nodiscard]] bool await_hello(std::size_t index);

  FabricConfig config_;
  obs::ObsContext obs_;
  std::vector<Member> members_;
  std::vector<std::pair<std::size_t, std::uint64_t>> pending_kills_;
  std::uint64_t epoch_ = 0;
  std::uint64_t respawns_ = 0;
};

}  // namespace mvcom::fabric
