#include "pipeline/serve.hpp"

#include <utility>

#include "chain/checkpoint.hpp"
#include "common/rng.hpp"
#include "obs/export.hpp"

namespace mvcom::pipeline {

ServeSession::ServeSession(ServeConfig config) : config_(std::move(config)) {}

bool ServeSession::flush_artifacts() {
  bool ok = true;
  if (!config_.metrics_out.empty()) {
    ok = obs::write_prometheus_text(metrics_, config_.metrics_out) && ok;
  }
  if (!config_.trace_out.empty()) {
    ok = obs::write_chrome_trace_json(trace_, config_.trace_out) && ok;
  }
  return ok;
}

ServeSummary ServeSession::run(
    const std::function<void(const EpochReport&)>& on_epoch) {
  ServeSummary summary;
  common::Rng stream_rng(config_.stream_seed);
  const txn::Trace trace = txn::generate_trace(config_.stream, stream_rng);

  EpochPipeline pipe(trace, config_.pipeline);
  pipe.bind_external_stop(&stop_);
  pipe.set_obs(obs::ObsContext(&metrics_, &trace_));

  // A checkpoint that cannot be written fails the artifact verdict; the run
  // and the other exporters carry on.
  bool checkpoints_ok = true;
  const auto checkpoint = [&] {
    if (chain::write_checkpoint_file(pipe.chain(), config_.checkpoint_out)) {
      ++summary.checkpoints_written;
    } else {
      checkpoints_ok = false;
    }
  };
  try {
    summary.totals = pipe.run([&](const EpochReport& report) {
      if (!config_.checkpoint_out.empty() && config_.checkpoint_every > 0 &&
          (report.epoch + 1) % config_.checkpoint_every == 0) {
        checkpoint();
      }
      if (on_epoch) on_epoch(report);
    });
  } catch (...) {
    // Even a crashed run must leave valid artifacts behind — the flush
    // validators make a truncated export indistinguishable from a clean one
    // structurally (fewer samples, same grammar).
    flush_artifacts();
    throw;
  }

  // Final checkpoint so a stopped daemon resumes from its last commit.
  if (!config_.checkpoint_out.empty()) checkpoint();
  summary.chain_valid = pipe.chain().validate_full();
  summary.artifacts_valid = flush_artifacts() && checkpoints_ok;
  return summary;
}

}  // namespace mvcom::pipeline
