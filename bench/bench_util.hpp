#pragma once
// Shared machinery for the figure-reproduction benches: paper-parameterized
// workload construction (§VI-A) and plain-text series printing. Every bench
// binary regenerates one figure of the paper's evaluation and prints the
// same rows/series that figure plots.

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace mvcom::bench {

/// The paper's dataset: the synthetic stand-in for the 1378-block / 1.5M-TX
/// January-2016 Bitcoin snapshot (see DESIGN.md §3). Deterministic.
[[nodiscard]] txn::Trace paper_trace(std::uint64_t seed = 2016);

/// Builds one epoch's MVCom instance at the paper's parameter points:
/// |I| committees, capacity Ĉ, weight α, N_min (0 unless the experiment is
/// an online case, where the paper fixes N_min = 50%·|I|).
[[nodiscard]] core::EpochInstance paper_instance(const txn::Trace& trace,
                                                 std::uint64_t epoch_seed,
                                                 std::size_t num_committees,
                                                 std::uint64_t capacity,
                                                 double alpha,
                                                 std::size_t n_min);

/// Builds one epoch at the 10k–50k scale tiers: the paper's workload shape
/// blown up past the 1378-block snapshot (2·|I| blocks, ~1500·|I| TXs),
/// Ĉ = 70% of the epoch's total load, α = 1.5, N_min = |I|/2. Deterministic
/// in |I|, so every scale bench sees the same instance.
[[nodiscard]] core::EpochInstance scale_instance(std::size_t num_committees);

/// True when the expensive 50k-committee tiers should run too
/// (MVCOM_BENCH_SCALE=full); the 10k tiers always run.
[[nodiscard]] bool scale_full_enabled();

/// Prints a section header for one figure/panel.
void print_header(const std::string& figure, const std::string& subtitle);

/// Prints an iteration-utility series, downsampled to ~`points` rows.
void print_trace(const std::string& label, std::span<const double> trace,
                 std::size_t points = 25);

/// Prints one "name: value" summary row.
void print_row(const std::string& name, double value);
void print_row(const std::string& name, const std::string& value);

/// Prints one "[PASS] criterion" or "[FAIL] criterion" verdict row.
void print_pass(const char* criterion, bool ok);

}  // namespace mvcom::bench
