#pragma once
// Worker-side half of the process fabric (DESIGN.md §17).
//
// A worker is a forked child running `run_worker_loop` on its end of the
// socketpair: receive one epoch's TaskBatch, run every lane serially with
// `run_committee_lane` (serially on purpose — the child must stay
// single-threaded so a SIGKILL'd sibling or a sanitizer build never sees a
// forked thread), reply with one ResultBatch carrying the lane results and,
// when the worker counts, the epoch's observability counter deltas, repeat
// until kShutdown or EOF.
//
// The loop reuses its decode/encode arenas across epochs: the TaskBatch's
// vectors are resized in place and the tx/rx buffers grow to the high-water
// mark once, so steady-state epochs allocate nothing on the framing path.

#include <cstdint>
#include <string>

#include "fabric/transport.hpp"

namespace mvcom::fabric {

struct WorkerOptions {
  std::uint32_t index = 0;
  /// Whether the lanes run with a private registry whose counter deltas
  /// ride every ResultBatch. The coordinator sets it only when someone
  /// reads them: its own registry folds the deltas, or `metrics_path`
  /// exports the registry. Without it the lanes count nothing and the
  /// batches carry no deltas; the lane results are the same either way.
  bool count = false;
  /// When non-empty, the worker re-exports its private registry here after
  /// every epoch (Prometheus text) — the per-process scrape surface.
  std::string metrics_path;
};

/// Runs the worker protocol until shutdown (returns 0), coordinator EOF
/// (returns 0 — a vanished coordinator is a normal teardown), or a protocol
/// violation (returns 1). Never throws across the fork boundary.
[[nodiscard]] int run_worker_loop(Channel& channel,
                                  const WorkerOptions& options) noexcept;

}  // namespace mvcom::fabric
