#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mvcom::bench {

txn::Trace paper_trace(std::uint64_t seed) {
  common::Rng rng(seed);
  return txn::generate_trace({}, rng);  // defaults = §VI-A calibration
}

core::EpochInstance paper_instance(const txn::Trace& trace,
                                   std::uint64_t epoch_seed,
                                   std::size_t num_committees,
                                   std::uint64_t capacity, double alpha,
                                   std::size_t n_min) {
  common::Rng rng(epoch_seed);
  txn::WorkloadConfig wc;
  wc.num_committees = num_committees;
  const txn::WorkloadGenerator gen(trace, wc);
  const txn::EpochWorkload workload = gen.epoch(rng);
  return core::EpochInstance::from_reports(workload.reports, alpha, capacity,
                                           n_min);
}

core::EpochInstance scale_instance(std::size_t num_committees) {
  common::Rng trace_rng(2016);
  txn::TraceGeneratorConfig tc;
  tc.num_blocks = 2 * num_committees;
  tc.target_total_txs = num_committees * 1500;
  const txn::Trace trace = txn::generate_trace(tc, trace_rng);
  common::Rng rng(1);
  txn::WorkloadConfig wc;
  wc.num_committees = num_committees;
  const txn::WorkloadGenerator gen(trace, wc);
  const txn::EpochWorkload workload = gen.epoch(rng);
  std::uint64_t total = 0;
  for (const auto& r : workload.reports) total += r.tx_count;
  return core::EpochInstance::from_reports(workload.reports, /*alpha=*/1.5,
                                           /*capacity=*/(total * 7) / 10,
                                           /*n_min=*/num_committees / 2);
}

bool scale_full_enabled() {
  const char* v = std::getenv("MVCOM_BENCH_SCALE");
  return v != nullptr && std::string(v) == "full";
}

void print_header(const std::string& figure, const std::string& subtitle) {
  std::printf("\n=== %s — %s ===\n", figure.c_str(), subtitle.c_str());
}

void print_trace(const std::string& label, std::span<const double> trace,
                 std::size_t points) {
  if (trace.empty()) {
    std::printf("%-28s (empty trace)\n", label.c_str());
    return;
  }
  const std::size_t stride =
      trace.size() <= points ? 1 : (trace.size() + points - 1) / points;
  std::printf("%-28s", label.c_str());
  for (std::size_t i = 0; i < trace.size(); i += stride) {
    const double u = trace[i];
    if (std::isnan(u)) {
      std::printf(" [%zu]=nan", i);
    } else {
      std::printf(" [%zu]=%.0f", i, u);
    }
  }
  const double last = trace.back();
  std::printf(" [final]=%s\n",
              std::isnan(last) ? "nan" : std::to_string(last).c_str());
}

void print_row(const std::string& name, double value) {
  std::printf("  %-44s %14.3f\n", name.c_str(), value);
}

void print_row(const std::string& name, const std::string& value) {
  std::printf("  %-44s %14s\n", name.c_str(), value.c_str());
}

void print_pass(const char* criterion, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", criterion);
}

}  // namespace mvcom::bench
