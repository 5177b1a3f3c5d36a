#pragma once
// ServeSession — the long-running "daemon mode" harness around the streaming
// epoch pipeline: synthesizes an ingest trace, attaches observability,
// writes periodic root-chain checkpoints, and — critically — flushes every
// exporter through a scope-exit guard, so a SIGINT, a thrown
// exception, or an early stop still leaves *valid* Prometheus and
// Chrome-trace artifacts on disk (the strict self-check validators run on
// every export and their verdict is reported in the summary).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "txn/trace_generator.hpp"

namespace mvcom::pipeline {

struct ServeConfig {
  PipelineConfig pipeline;
  /// The synthetic ingest stream.
  txn::TraceGeneratorConfig stream;
  std::uint64_t stream_seed = 2016;

  /// Export destinations; empty string skips that exporter.
  std::string metrics_out;      // Prometheus text exposition
  std::string trace_out;        // Chrome trace-event JSON
  std::string checkpoint_out;   // root-chain checkpoint
  /// Write a checkpoint every N committed epochs (0 = only the final one).
  std::size_t checkpoint_every = 1;
};

struct ServeSummary {
  PipelineTotals totals;
  std::size_t checkpoints_written = 0;
  /// True when every requested artifact — each checkpoint included — was
  /// written AND passed its strict validator, also on a truncated
  /// (stopped-early) run.
  bool artifacts_valid = false;
  bool chain_valid = false;  // RootChain::validate_full() at exit
};

class ServeSession {
 public:
  /// Synthesizes the stream and builds the pipeline; throws
  /// std::invalid_argument on a config the pipeline rejects.
  explicit ServeSession(ServeConfig config);

  /// Runs the stream to completion or until request_stop(). Exporters are
  /// flushed on every exit path.
  ServeSummary run(
      const std::function<void(const EpochReport&)>& on_epoch = {});

  /// Async-signal-safe stop: the pipeline's request_stop(), one lock-free
  /// atomic store that it polls between epochs. A stop before run() runs no
  /// epoch.
  void request_stop() noexcept { pipe_.request_stop(); }

  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

 private:
  /// Writes + validates every configured artifact; returns overall verdict.
  bool flush_artifacts();

  ServeConfig config_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  txn::Trace stream_;  // must outlive pipe_, which reads it
  EpochPipeline pipe_;
};

}  // namespace mvcom::pipeline
