#pragma once
// The streaming epoch pipeline — consecutive MVCom epochs over a continuous
// transaction stream, with software-pipelined epoch overlap (DESIGN.md §13).
//
// The paper's throughput story (Eq. (2), Figs. 10–14) is about *consecutive*
// epochs: cumulative TX age only matters because the system keeps running.
// This module drives exactly that regime. Each epoch is split into two
// stages:
//
//   Stage A — formation, as one parallel_for on the run's pool, nested
//     inside the stage-A task, after a binary search for the epoch's window
//     of the trace. Task 0 samples every formed committee's two-phase (PoW
//     formation + intra-committee PBFT) completion time; the draws share
//     one stream, so they run in committee order on one thread. Each other
//     task takes a chunk of 8 committees: it deals them their round-robin
//     blocks and hashes their ids, TX counts and shard roots, then, with
//     pow_grind_bits > 0, grinds their real PoW puzzles. Every task writes
//     only its own fields of the shards, which form in place, and its own
//     nonce slots. Stage B folds the formation digest in committee order
//     and counts the grind's attempts (EpochReport::pow_attempts). Every
//     committee is independent, and solve() returns the first qualifying
//     nonce within a fixed budget, so the nonces — and the digest — do not
//     depend on which thread ground them. Stage A is a *pure function* of
//     (trace, config, epoch index): its randomness comes from
//     Rng::stream(seed, slot(e)) — per-epoch stream roots derived from
//     (seed, epoch index), never from a shared forking engine — so epoch
//     e+1's formation can run concurrently with anything without perturbing
//     a single draw.
//
//   Stage B — scheduling + final consensus. Rebase carried shards against
//     the *realized* epoch boundary (max of the nominal window edge and the
//     previous final block's commit instant), build the EpochInstance and
//     decide: by default, commit its greedy seed when it is certified
//     within se.gap_tolerance of the fractional-knapsack bound (no SE
//     scheduler is built then) and otherwise run the SE scheduler
//     warm-started from it; with a DecisionPolicy set, commit what it
//     returns. Then decide the DDL, run stage-4 final
//     consensus as a real discrete-event PBFT round, account committed
//     per-TX ages, extend the root chain, and
//     carry the refused shards forward. Stage B mutates all cross-epoch
//     state and therefore executes strictly in epoch order.
//
// Overlap: with overlap_depth 2, step k runs {B(k), A(k+1)} as one
// thread-pool batch — the root chain never idles waiting for formation.
// Stage B lends the same pool to the SE scheduler, whose explorer batches
// nest inside B(k), and stage A runs its tasks on it: whichever batch a
// context is free for, it helps with, so the thread that finishes a short
// B(k) grinds A(k+1)'s chunks instead of waiting.
// Because stage A is pure and only one stage B is in flight per batch, the
// pipelined schedule is *bitwise identical* to the sequential reference
// (overlap_depth = 1) for any worker count: same per-epoch event-order
// digests, same utilities, same committed/deferred accounting. That is the
// determinism contract the test_pipeline matrix enforces, mirroring the
// PR-5 serial-fork/ordered-merge discipline of the Elastico lanes.

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "chain/root_chain.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "mvcom/se_scheduler.hpp"
#include "obs/context.hpp"
#include "txn/trace.hpp"

namespace mvcom::obs {
class Counter;
class Gauge;
}  // namespace mvcom::obs

namespace mvcom::pipeline {

struct PipelineConfig {
  std::size_t committees = 20;     // member committees formed per epoch
  std::size_t epochs = 6;          // epoch windows spanning the trace
  /// 1 = strictly sequential (the bitwise-determinism reference); 2
  /// overlaps epoch e's stage B with epoch e+1's stage A; 0 means 1. The
  /// constructor throws std::invalid_argument above 2: a deeper lookahead
  /// would run the same two-task batch, only holding more formed epochs.
  std::size_t overlap_depth = 1;
  /// Workers of the run's one thread pool, which serves the overlap batch
  /// {B(k), A(k+1)} and, nested inside the stages, stage A's PoW grind
  /// chunks and the SE scheduler's Γ explorers (0 = everything inline on
  /// the calling thread; results are identical either way).
  std::size_t workers = 0;
  double alpha = 1.5;              // Eq.-(2) throughput weight
  /// Ĉ as a fraction of the epoch's pending TXs. The constructor throws
  /// std::invalid_argument outside (0, 1], NaN included.
  double capacity_fraction = 0.6;
  std::size_t n_min = 0;           // Eq.-(3) lower bound
  /// SE scheduler knobs (threads, iterations…). Unlike the library default,
  /// gap_tolerance is 0.01: an epoch whose warm seed is within 1 % of the
  /// fractional-knapsack bound commits the seed and skips SE entirely.
  core::SeParams se{.gap_tolerance = 0.01};
  /// Build each epoch's greedy seed (a gain-order fill of its instance,
  /// topped up to N_min) and commit it when it certifies, or seed SE's
  /// explorers with it via SeScheduler::warm_start; the reported utility
  /// can then never fall below the seed's.
  bool warm_start = true;
  /// > 0: stage A really grinds PoW at this difficulty (bits of leading
  /// zeros) per committee, on the run's pool — makes formation genuinely
  /// CPU-bound and folds the winning nonces into the epoch digest. 0 uses
  /// the calibrated latency model only. The constructor throws
  /// std::invalid_argument outside 0..63.
  int pow_grind_bits = 0;
  std::size_t final_replicas = 4;  // stage-4 mini-DES committee size
  std::uint64_t seed = 1;          // root of every per-epoch Rng stream
};

/// What stage B decided for one epoch.
struct EpochReport {
  std::size_t epoch = 0;
  double window_end = 0.0;   // nominal window edge
  double start = 0.0;        // realized boundary: max(window_end, prev commit)
  double commit = 0.0;       // final-block commit instant
  bool feasible = false;     // stage B found an admissible selection
  double utility = 0.0;      // Eq.-(2) utility of the committed selection
  /// core::fractional_bound of the epoch's instance (0 with no shards):
  /// no selection can beat it, so (bound − utility)/|bound| is the epoch's
  /// optimality-gap certificate (core::relative_gap).
  double utility_bound = 0.0;
  /// The committed decision is within se.gap_tolerance of the bound: the
  /// warm seed itself (committed with no SE scheduler, 0 iterations) or
  /// SE's incumbent when SE stopped on the certificate.
  bool certified = false;
  /// Utility of the greedy warm-start seed (NaN when cold or infeasible).
  double warm_seed_utility = 0.0;
  std::size_t shards_pending = 0;    // instance size (carried + fresh)
  std::size_t shards_committed = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t carried_txs = 0;     // refused, still pending after this epoch
  double total_age = 0.0;            // Σ per-TX (commit − btime), committed
  std::uint64_t se_iterations = 0;
  /// Stage A's PoW hashes (0 without pow_grind_bits): per committee, its
  /// winning nonce + 1, or the budget when it gave up. Enters no digest.
  std::uint64_t pow_attempts = 0;
  std::uint64_t des_events = 0;          // stage-4 simulator events
  std::uint64_t event_order_digest = 0;  // formation + DES + selection fold
};

/// Aggregates over a whole run (possibly stopped early).
struct PipelineTotals {
  std::size_t epochs_run = 0;
  bool stopped_early = false;
  std::uint64_t ingested_txs = 0;   // TXs that entered scheduling
  std::uint64_t committed_txs = 0;
  std::uint64_t pending_txs = 0;    // still carried at exit
  double total_age = 0.0;
  std::size_t max_shard_carries = 0;  // most times any one shard was deferred
  std::uint64_t digest = 0;           // fold of the per-epoch digests
};

/// Stage B's decision seam: the selection to commit for an epoch's
/// instance, index-aligned with it and feasible under Eq. (3)/(4), or empty
/// to commit nothing and carry every shard.
using DecisionPolicy =
    std::function<core::Selection(const core::EpochInstance&)>;

class EpochPipeline {
 public:
  /// `trace` must outlive the pipeline and be btime-sorted (the generator's
  /// postcondition).
  EpochPipeline(const txn::Trace& trace, PipelineConfig config);

  /// Attaches observability: per-epoch metrics and sim-clocked trace spans.
  void set_obs(obs::ObsContext obs);

  /// Replaces stage B's default decision (the certified greedy seed, else
  /// SE warm-started from it); an empty policy restores it. It runs once
  /// per epoch with pending shards, in epoch order, on whichever thread runs
  /// stage B (a pool worker at depth 2). A selection that is neither empty
  /// nor index-aligned and feasible throws std::logic_error before the
  /// epoch commits. Policy epochs report no certificate, seed or SE
  /// iterations.
  void set_policy(DecisionPolicy policy) { policy_ = std::move(policy); }

  /// Requests a graceful stop: the current step finishes, the loop exits
  /// before the next epoch. Safe to call from another thread or a signal
  /// handler (single relaxed atomic store).
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// Drives every epoch (or until stopped). `on_epoch`, when set, fires
  /// after each epoch's stage B, in epoch order, on the driving thread.
  PipelineTotals run(
      const std::function<void(const EpochReport&)>& on_epoch = {});

  [[nodiscard]] const chain::RootChain& chain() const noexcept {
    return chain_;
  }

 private:
  /// One shard awaiting selection: fresh this epoch or carried from earlier.
  struct PendingShard {
    std::uint32_t id = 0;   // stable across carries (epoch-qualified)
    std::vector<std::size_t> block_indices;
    std::uint64_t txs = 0;
    double submit_time = 0.0;  // absolute two-phase completion instant
    crypto::Digest root{};     // shard root committed by the final block
    std::size_t carries = 0;   // number of epochs this shard was deferred
  };

  /// Stage A's output: everything epoch e's scheduling needs from formation.
  struct FormedEpoch {
    std::size_t epoch = 0;
    double window_end = 0.0;
    std::vector<PendingShard> shards;      // fresh shards, committee order
    /// Per shard: its winning PoW nonce + 1; 0 when none was found or
    /// nothing was ground. Stage B folds these into the epoch digest.
    std::vector<std::uint64_t> nonces;
  };

  /// Stage A. `pool` (may be null) runs it as one batch: the latency draws
  /// and the chunks of committees (dealing, shard roots and PoW).
  [[nodiscard]] FormedEpoch form_epoch(std::size_t epoch,
                                       common::ThreadPool* pool) const;
  /// Stage B. `pool` (may be null) is lent to the SE scheduler of an
  /// uncertified epoch.
  EpochReport schedule_epoch(FormedEpoch&& formed, common::ThreadPool* pool);

  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  const txn::Trace* trace_;
  PipelineConfig config_;
  DecisionPolicy policy_;
  double trace_start_ = 0.0;
  double window_ = 0.0;  // nominal epoch window length

  // Cross-epoch state — touched exclusively by stage B, in epoch order.
  std::vector<PendingShard> carried_;
  double prev_commit_ = 0.0;
  chain::RootChain chain_;
  PipelineTotals totals_;

  std::atomic<bool> stop_{false};

  obs::ObsContext obs_;
  obs::Counter* obs_epochs_ = nullptr;
  obs::Counter* obs_committed_ = nullptr;
  obs::Counter* obs_carried_ = nullptr;
  obs::Gauge* obs_utility_ = nullptr;
  obs::Gauge* obs_gap_ = nullptr;
  obs::Gauge* obs_commit_time_ = nullptr;
  obs::Counter* obs_pow_attempts_ = nullptr;  // with pow_grind_bits only
};

}  // namespace mvcom::pipeline
