// Serve-mode sustained throughput — the streaming epoch pipeline under a
// multi-million-TX ingest stream (DESIGN.md §13).
//
// One trace, two executions of the identical schedule:
//   sequential — overlap depth 1, no pool: the bitwise-determinism reference;
//   pipelined  — overlap depth 2, worker pool: epoch e+1's formation (PoW
//                grinding, latency sampling, shard roots) overlaps epoch e's
//                SE scheduling + stage-4 final consensus, and epoch e's Γ SE
//                explorers run on the same pool, nested inside stage B.
//
// The two runs must agree on every per-epoch event_order_digest and on the
// fold-of-everything totals digest — a mismatch is a correctness bug, so the
// bench exits non-zero rather than publishing a number for a broken schedule.
//
// Gates (baseline-relative, tools/bench_compare.py):
//   gate_rate_serve_steady_txs        committed TX/s of the pipelined run;
//   gate_rate_serve_pipeline_speedup  sequential wall / pipelined wall —
//                                     stage overlap plus intra-epoch SE
//                                     parallelism; ~1.0 on a single
//                                     hardware thread, >1 on multi-core;
//                                     gated so it never *regresses*
//                                     relative to the recorded baseline
//                                     host.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::pipeline::EpochPipeline;
using mvcom::pipeline::PipelineConfig;
using mvcom::pipeline::PipelineTotals;

struct TimedRun {
  PipelineTotals totals;
  std::vector<std::uint64_t> epoch_digests;
  double seconds = 0.0;
};

TimedRun run(const mvcom::txn::Trace& trace, const PipelineConfig& config) {
  TimedRun out;
  EpochPipeline pipe(trace, config);
  const auto t0 = std::chrono::steady_clock::now();
  out.totals = pipe.run([&](const mvcom::pipeline::EpochReport& r) {
    out.epoch_digests.push_back(r.event_order_digest);
  });
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

int main() {
  mvcom::bench::BenchJson json("serve_throughput");

  // Sustained tier: a ~20M-TX stream over 8 epoch windows. The TX volume
  // rides in the block counts (accounting is O(blocks), not O(TXs)), so the
  // tier measures the real per-epoch engine — formation with PoW grinding,
  // SE exploration, the stage-4 consensus DES — at a ≥10M-committed scale.
  mvcom::common::Rng trace_rng(2016);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 3000;
  tc.target_total_txs = 20'000'000;
  tc.mean_interblock_seconds = 15.0;
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);

  PipelineConfig config;
  config.committees = 300;
  config.epochs = 8;
  config.capacity_fraction = 0.6;
  config.se.threads = 4;
  config.se.max_iterations = 300;
  config.se.convergence_window = 300;
  config.pow_grind_bits = 8;
  config.seed = 1;

  mvcom::bench::print_header(
      "Serve throughput",
      "streaming pipeline, sequential reference vs depth-2 overlap");

  PipelineConfig seq = config;
  seq.overlap_depth = 1;
  seq.workers = 0;
  const TimedRun sequential = run(trace, seq);

  PipelineConfig pipe = config;
  pipe.overlap_depth = 2;
  pipe.workers = 2;
  const TimedRun pipelined = run(trace, pipe);

  // Determinism first: the overlapped schedule must BE the sequential one.
  bool identical = sequential.totals.digest == pipelined.totals.digest &&
                   sequential.epoch_digests == pipelined.epoch_digests;
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: pipelined digests diverge from the sequential "
                 "reference (totals %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(sequential.totals.digest),
                 static_cast<unsigned long long>(pipelined.totals.digest));
    return 1;
  }
  if (pipelined.totals.committed_txs < 10'000'000) {
    std::fprintf(stderr,
                 "FATAL: sustained tier committed only %llu TXs (< 10M) — "
                 "the tier no longer measures the promised scale\n",
                 static_cast<unsigned long long>(
                     pipelined.totals.committed_txs));
    return 1;
  }

  const double steady_rate =
      static_cast<double>(pipelined.totals.committed_txs) / pipelined.seconds;
  const double speedup = sequential.seconds / pipelined.seconds;
  std::printf("  epochs %zu | ingested %llu TXs | committed %llu | "
              "pending %llu\n",
              pipelined.totals.epochs_run,
              static_cast<unsigned long long>(pipelined.totals.ingested_txs),
              static_cast<unsigned long long>(pipelined.totals.committed_txs),
              static_cast<unsigned long long>(pipelined.totals.pending_txs));
  std::printf("  sequential %.3fs | pipelined %.3fs | speedup %.3fx | "
              "steady state %.0f committed TX/s\n",
              sequential.seconds, pipelined.seconds, speedup, steady_rate);
  std::printf("  digests identical: yes (totals %016llx)\n",
              static_cast<unsigned long long>(pipelined.totals.digest));

  json.set("committed_txs",
           static_cast<double>(pipelined.totals.committed_txs));
  json.set("pending_txs", static_cast<double>(pipelined.totals.pending_txs));
  json.set("sequential_seconds", sequential.seconds);
  json.set("pipelined_seconds", pipelined.seconds);
  json.set("digests_identical", 1.0);
  json.set("gate_rate_serve_steady_txs", steady_rate);
  json.set("gate_rate_serve_pipeline_speedup", speedup);
  json.write();
  return 0;
}
