// Observability subsystem tests: instruments (counters/gauges/histograms),
// registry semantics, the trace ring, and every exporter — including the
// validators the CI smoke job relies on — plus one end-to-end chaos epoch
// asserting the event categories the harness promises.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain/checkpoint.hpp"
#include "common/rng.hpp"
#include "mvcom/fault_injection.hpp"
#include "pipeline/serve.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace {

using mvcom::obs::Counter;
using mvcom::obs::Gauge;
using mvcom::obs::LogHistogram;
using mvcom::obs::MetricsRegistry;
using mvcom::obs::ObsContext;
using mvcom::obs::TraceEvent;
using mvcom::obs::TraceRecorder;

TEST(CounterTest, IncAndAdd) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  MetricsRegistry registry;
  Counter& c = registry.counter("contended_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetIsLastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(LogHistogramTest, GeometricBoundsAndPlacement) {
  MetricsRegistry registry;
  LogHistogram& h = registry.histogram("lat_seconds");
  // Finite bounds 1e-3 · 2^k for k = 0..17, plus +Inf.
  ASSERT_EQ(h.bucket_count(), 19u);
  for (std::size_t k = 0; k < 18; ++k) {
    EXPECT_DOUBLE_EQ(h.upper_bound(k), std::ldexp(1e-3, static_cast<int>(k)))
        << "bucket " << k;
  }
  EXPECT_TRUE(std::isinf(h.upper_bound(18)));

  h.observe(5e-4);   // bucket 0 (le 0.001)
  h.observe(3e-3);   // bucket 2 (le 0.004)
  h.observe(1000.0); // +Inf bucket
  EXPECT_EQ(h.bucket_value(0), 1u);
  EXPECT_EQ(h.bucket_value(1), 0u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(18), 1u);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_DOUBLE_EQ(h.total_sum(), 1000.0035);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total", "help", {{"k", "v"}});
  Counter& b = registry.counter("x_total", "ignored", {{"k", "v"}});
  Counter& other = registry.counter("x_total", "help", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, TypeConflictAndBadNamesThrow) {
  MetricsRegistry registry;
  registry.counter("x_total");
  EXPECT_THROW(registry.gauge("x_total"), std::invalid_argument);
  EXPECT_THROW(registry.counter("0bad"), std::invalid_argument);
  EXPECT_THROW(registry.counter("ok_total", "", {{"0bad", "v"}}),
               std::invalid_argument);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("z_total").inc();
  registry.gauge("a_gauge").set(7.0);
  registry.counter("m_total", "", {{"l", "b"}});
  registry.counter("m_total", "", {{"l", "a"}});
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "a_gauge");
  EXPECT_EQ(snap[1].name, "m_total");
  EXPECT_EQ(snap[1].labels[0].value, "a");
  EXPECT_EQ(snap[2].labels[0].value, "b");
  EXPECT_EQ(snap[3].name, "z_total");
  EXPECT_DOUBLE_EQ(snap[0].value, 7.0);
  EXPECT_DOUBLE_EQ(snap[3].value, 1.0);
}

TEST(PrometheusExportTest, TextFormatAndValidator) {
  MetricsRegistry registry;
  registry.counter("reqs_total", "Requests served", {{"code", "200"}}).add(3);
  registry.counter("reqs_total", "Requests served", {{"code", "500"}}).add(1);
  registry.gauge("temp_celsius", "Temperature").set(21.5);
  registry.histogram("lat_seconds", "Latency").observe(5e-4);

  const std::string text = mvcom::obs::to_prometheus_text(registry);
  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_prometheus_text(text, &error)) << error;

  // One HELP/TYPE header per family, even with two series in the family.
  std::size_t help_count = 0;
  for (std::size_t pos = text.find("# HELP reqs_total");
       pos != std::string::npos;
       pos = text.find("# HELP reqs_total", pos + 1)) {
    ++help_count;
  }
  EXPECT_EQ(help_count, 1u);
  EXPECT_NE(text.find("reqs_total{code=\"200\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  // The constant bounds, 1e-3 · 2^k: the first and the last finite one.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.001\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"131.072\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1"), std::string::npos);
}

TEST(PrometheusExportTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.counter("esc_total", "", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = mvcom::obs::to_prometheus_text(registry);
  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_prometheus_text(text, &error)) << error;
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(PrometheusExportTest, ValidatorRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(mvcom::obs::validate_prometheus_text("not a sample\n", &error));
  EXPECT_FALSE(mvcom::obs::validate_prometheus_text("x{y=\"z\"} nope\n"));
  EXPECT_FALSE(
      mvcom::obs::validate_prometheus_text("missing_newline 1"));  // no '\n'
  EXPECT_TRUE(mvcom::obs::validate_prometheus_text("x 1\nx_inf +Inf\n"));
}

TEST(ExportShortWriteTest, EveryExporterReportsIt) {
  // /dev/full opens fine and fails every write with ENOSPC: an exporter
  // notices only if it flushes and checks the stream before returning.
  const std::filesystem::path full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no /dev/full";
  MetricsRegistry registry;
  registry.counter("c_total", "").inc();
  TraceRecorder recorder;
  recorder.instant("cat", "event");
  std::string error;
  EXPECT_FALSE(mvcom::obs::write_prometheus_text(registry, full, &error));
  EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
  EXPECT_FALSE(mvcom::obs::write_chrome_trace_json(recorder, full));
}

TEST(JsonTest, EscapeAndValidate) {
  EXPECT_EQ(mvcom::obs::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_json(R"({"a":[1,2.5,-3e4,null,true,"x"]})",
                                        &error))
      << error;
  EXPECT_FALSE(mvcom::obs::validate_json("{\"a\":}"));
  EXPECT_FALSE(mvcom::obs::validate_json("[1,2"));
  EXPECT_FALSE(mvcom::obs::validate_json("{} trailing"));
}

TEST(TraceRecorderTest, StampsClocksAndSequence) {
  TraceRecorder recorder(16);
  recorder.instant("cat", "no-sim");
  double sim_now = 42.0;
  recorder.set_sim_clock([&sim_now] { return sim_now; });
  recorder.complete("cat", "span", 1.5, {{"k", 2.0}});
  recorder.set_sim_clock(nullptr);
  recorder.instant("cat", "detached");

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::isnan(events[0].sim_time_seconds));
  EXPECT_DOUBLE_EQ(events[1].sim_time_seconds, 42.0);
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_DOUBLE_EQ(events[1].duration_seconds, 1.5);
  ASSERT_EQ(events[1].arg_count(), 1u);
  EXPECT_STREQ(events[1].args[0].key, "k");
  EXPECT_TRUE(std::isnan(events[2].sim_time_seconds));
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_GE(events[2].wall_time_us, events[0].wall_time_us);
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDropped) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.instant("cat", "e", {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot of the last 4 records.
  EXPECT_DOUBLE_EQ(events.front().args[0].value, 6.0);
  EXPECT_DOUBLE_EQ(events.back().args[0].value, 9.0);
}

TEST(ChromeTraceExportTest, ValidJsonWithDualClockPids) {
  TraceRecorder recorder(16);
  recorder.instant("wallonly", "w");
  recorder.set_sim_clock([] { return 3.0; });
  recorder.complete("simmed", "s", 2.0);
  recorder.set_sim_clock(nullptr);

  const auto events = recorder.snapshot();
  const std::string json = mvcom::obs::to_chrome_trace_json(events);
  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_json(json, &error)) << error;
  // Sim-clocked events land on pid 1, wall-only events on pid 2; the 'X'
  // span's start is rewound by its duration (3.0 s - 2.0 s -> ts 1e6 us).
  EXPECT_NE(json.find("\"pid\":2,"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process names
}

TEST(ObsContextTest, DefaultContextIsInert) {
  const ObsContext inert;
  EXPECT_EQ(inert.metrics(), nullptr);
  EXPECT_EQ(inert.trace(), nullptr);
  EXPECT_FALSE(static_cast<bool>(inert));
}

// End-to-end: a small chaos epoch with sinks attached must produce the
// event categories the observability contract promises, and its metrics
// must export cleanly.
TEST(ChaosObservabilityTest, EpochEmitsPromisedCategories) {
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 64;
  tc.target_total_txs = 64 * 500;
  mvcom::common::Rng trace_rng(7);
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = 12;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  mvcom::common::Rng workload_rng(8);
  const auto committees = mvcom::core::chaos_committees_from_reports(
      gen.epoch(workload_rng).reports);

  mvcom::core::FaultPlanConfig pc;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.stragglers = 1;
  pc.misreports = 1;
  mvcom::common::Rng plan_rng(9);
  const auto plan = mvcom::core::FaultPlan::randomized(pc, 12, plan_rng);

  std::uint64_t total_txs = 0;
  for (const auto& c : committees) total_txs += c.submission.claimed_tx_count;

  mvcom::core::ChaosConfig config;
  config.supervisor.scheduler.expected_committees = 12;
  config.supervisor.scheduler.capacity = (total_txs * 7) / 10;
  config.ddl_seconds = 1500.0;

  MetricsRegistry registry;
  TraceRecorder recorder;
  config.obs = ObsContext(&registry, &recorder);
  const auto report =
      mvcom::core::run_chaos_epoch(committees, plan, config, 11);
  EXPECT_FALSE(report.infeasible_while_feasible);

  std::set<std::string> categories;
  bool saw_epoch_start = false;
  bool saw_decide = false;
  for (const TraceEvent& e : recorder.snapshot()) {
    categories.insert(e.category);
    if (std::string(e.name) == "epoch/start") saw_epoch_start = true;
    if (std::string(e.name) == "epoch/decide") saw_decide = true;
    // Every chaos event is sim-clocked (the harness attaches the clock).
    EXPECT_FALSE(std::isnan(e.sim_time_seconds));
  }
  EXPECT_TRUE(saw_epoch_start);
  EXPECT_TRUE(saw_decide);
  EXPECT_TRUE(categories.count("epoch"));
  EXPECT_TRUE(categories.count("ladder"));
  EXPECT_TRUE(categories.count("net"));
  EXPECT_TRUE(categories.count("hb"));
  EXPECT_TRUE(categories.count("admission"));
  EXPECT_TRUE(categories.count("se"));  // SE bootstrapped and explored

  // Metric families every chaos run must touch, exported cleanly.
  double se_iterations = 0.0;
  double decisions = 0.0;
  for (const auto& m : registry.snapshot()) {
    if (m.name == "mvcom_se_iterations_total") se_iterations += m.value;
    if (m.name == "mvcom_supervisor_decisions_total") decisions += m.value;
  }
  EXPECT_GT(se_iterations, 0.0);
  EXPECT_GT(decisions, 0.0);

  // Every supervisor and online-loop counter series, and the event stream's
  // digest, pinned: an admission, failure or recovery counted twice or not
  // at all moves one of them.
  std::map<std::string, double> counters;
  for (const auto& m : registry.snapshot()) {
    if (m.type != MetricsRegistry::Type::kCounter) continue;
    if (m.name.rfind("mvcom_supervisor_", 0) != 0 &&
        m.name.rfind("mvcom_online_", 0) != 0) {
      continue;
    }
    std::string series = m.name;
    for (const auto& label : m.labels) series += "/" + label.value;
    counters[series] = m.value;
  }
  const std::map<std::string, double> expected = {
      {"mvcom_online_failures_total", 2},
      {"mvcom_online_recoveries_total", 0},
      {"mvcom_online_reports_total/accepted", 11},
      {"mvcom_online_reports_total/refused", 0},
      {"mvcom_supervisor_decisions_total/greedy-scratch", 9},
      {"mvcom_supervisor_decisions_total/infeasible", 31},
      {"mvcom_supervisor_decisions_total/se-best", 36},
      {"mvcom_supervisor_failures_total", 1},
      {"mvcom_supervisor_probes_total/missed", 21},
      {"mvcom_supervisor_probes_total/ok", 529},
      {"mvcom_supervisor_recoveries_total", 0},
      {"mvcom_supervisor_resizes_total", 0},
      {"mvcom_supervisor_strikes_total", 1},
      {"mvcom_supervisor_submissions_total/admitted", 11},
      {"mvcom_supervisor_submissions_total/banned", 0},
      {"mvcom_supervisor_submissions_total/duplicate", 0},
      {"mvcom_supervisor_submissions_total/quarantined", 1},
      {"mvcom_supervisor_submissions_total/readmitted", 0},
      {"mvcom_supervisor_submissions_total/refused", 0},
  };
  EXPECT_EQ(counters, expected);
  EXPECT_EQ(mvcom::obs::events_digest(recorder.snapshot()),
            0x11c49ba6500b93e6ULL);

  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_prometheus_text(
      mvcom::obs::to_prometheus_text(registry), &error))
      << error;
  const std::string json =
      mvcom::obs::to_chrome_trace_json(recorder.snapshot());
  EXPECT_TRUE(mvcom::obs::validate_json(json, &error)) << error;
}

// --- early-shutdown exporter flush -------------------------------------------

// A serve session stopped mid-stream (the SIGINT path calls exactly
// request_stop()) must still leave every artifact on disk, complete and
// valid: Prometheus text, the Chrome trace, and a loadable checkpoint of
// whatever prefix of the chain was committed.
TEST(EarlyShutdownFlushTest, StoppedServeRunExportsValidArtifacts) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mvcom_obs_early_shutdown_test";
  fs::create_directories(dir);

  mvcom::pipeline::ServeConfig config;
  config.pipeline.committees = 5;
  config.pipeline.epochs = 6;
  config.pipeline.overlap_depth = 2;
  config.pipeline.workers = 2;
  config.pipeline.se.threads = 2;
  config.pipeline.se.max_iterations = 60;
  config.pipeline.se.convergence_window = 60;
  config.stream.num_blocks = 60;
  config.stream.target_total_txs = 30'000;
  config.metrics_out = (dir / "metrics.prom").string();
  config.trace_out = (dir / "trace.json").string();
  config.checkpoint_out = (dir / "chain.ckpt").string();

  mvcom::pipeline::ServeSession session(config);
  std::size_t epochs_seen = 0;
  const auto summary =
      session.run([&](const mvcom::pipeline::EpochReport&) {
        if (++epochs_seen == 2) session.request_stop();
      });

  EXPECT_TRUE(summary.totals.stopped_early);
  EXPECT_EQ(summary.totals.epochs_run, 2u);
  EXPECT_TRUE(summary.chain_valid);
  EXPECT_TRUE(summary.artifacts_valid);

  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  std::string error;
  const std::string prometheus = slurp(dir / "metrics.prom");
  EXPECT_TRUE(mvcom::obs::validate_prometheus_text(prometheus, &error))
      << error;
  EXPECT_NE(prometheus.find("\nmvcom_pipeline_epochs_total 2\n"),
            std::string::npos);
  EXPECT_TRUE(mvcom::obs::validate_json(slurp(dir / "trace.json"), &error))
      << error;
  // The checkpoint captures exactly the committed prefix: genesis + 2 epochs.
  const auto restored =
      mvcom::chain::load_checkpoint_file((dir / "chain.ckpt").string());
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->validate_full());
  EXPECT_EQ(restored->size(), 3u);
  EXPECT_EQ(restored->total_txs(), summary.totals.committed_txs);

  fs::remove_all(dir);
}

// An exporter that cannot write fails the artifact verdict without stopping
// the exporters after it.
TEST(EarlyShutdownFlushTest,
     UnwritablePrometheusFailsTheVerdictAndTheTraceIsWritten) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mvcom_obs_prometheus_verdict_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  mvcom::pipeline::ServeConfig config;
  config.pipeline.committees = 5;
  config.pipeline.epochs = 1;
  config.stream.num_blocks = 60;
  config.stream.target_total_txs = 30'000;
  config.metrics_out = (dir / "missing" / "metrics.prom").string();
  config.trace_out = (dir / "trace.json").string();

  mvcom::pipeline::ServeSession session(config);
  const auto summary = session.run();
  EXPECT_TRUE(summary.chain_valid);
  EXPECT_FALSE(summary.artifacts_valid);
  EXPECT_FALSE(fs::exists(dir / "missing" / "metrics.prom"));

  std::ifstream in(dir / "trace.json");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_json(text.str(), &error)) << error;

  fs::remove_all(dir);
}

// So does a checkpoint that cannot be written: the run still finishes and
// every exporter still flushes.
TEST(EarlyShutdownFlushTest,
     UnwritableCheckpointFailsTheVerdictAndTheTraceIsWritten) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mvcom_obs_checkpoint_verdict_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  mvcom::pipeline::ServeConfig config;
  config.pipeline.committees = 5;
  config.pipeline.epochs = 2;
  config.stream.num_blocks = 60;
  config.stream.target_total_txs = 30'000;
  config.metrics_out = (dir / "metrics.prom").string();
  config.trace_out = (dir / "trace.json").string();
  config.checkpoint_out = (dir / "missing" / "chain.ckpt").string();

  mvcom::pipeline::ServeSession session(config);
  const auto summary = session.run();
  EXPECT_EQ(summary.totals.epochs_run, 2u);
  EXPECT_TRUE(summary.chain_valid);
  EXPECT_EQ(summary.checkpoints_written, 0u);
  EXPECT_FALSE(summary.artifacts_valid);

  std::ifstream in(dir / "trace.json");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  EXPECT_TRUE(mvcom::obs::validate_json(text.str(), &error)) << error;
  EXPECT_TRUE(fs::exists(dir / "metrics.prom"));

  fs::remove_all(dir);
}

}  // namespace
