#pragma once
// Dynamic Programming baseline (paper §VI-B): the classical 0/1-knapsack
// value iteration. Two objective variants are provided:
//
//  * kThroughput (default — the paper's baseline): value_i = s_i. This is
//    the DP a block producer would naturally write — "pack the most
//    transactions into the Ĉ-capacity final block" — and it is completely
//    blind to the cumulative age Π_i. That blindness is exactly what the
//    paper observes: "DP and WOA algorithms generate solutions with pretty
//    low valuable degrees ... failed to help the final committee choose the
//    most valuable member committees" (§VI-E). An age-aware exact DP could
//    never trail SE on utility, so the paper's DP must be this variant.
//
//  * kUtility (extra, ground-truth flavored): value_i = α·s_i − Π_i, the
//    exact Eq.-(2) knapsack. With an unscaled table and N_min = 0 it is
//    provably optimal — used by tests to certify the other solvers.
//
// In both variants N_min is handled only by core::top_up (the knapsack
// recurrence cannot express a cardinality lower bound without a second
// dimension), and capacities above kDpMaxBuckets are scaled into at most
// that many weight buckets (weights rounded up, so the returned selection
// never violates Ĉ — the classic FPTAS rounding).

#include "baselines/solver.hpp"

namespace mvcom::baselines {

enum class DpObjective {
  kThroughput,  // maximize packed TXs (the paper's DP)
  kUtility,     // maximize Eq. (2) exactly
};

/// Weight buckets of the DP table; a capacity at or below it is unscaled.
inline constexpr std::size_t kDpMaxBuckets = 50'000;

struct DpParams {
  DpObjective objective = DpObjective::kThroughput;
};

class DynamicProgramming final : public Solver {
 public:
  explicit DynamicProgramming(DpParams params = {}) : params_(params) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return params_.objective == DpObjective::kThroughput ? "DP" : "DP-U";
  }
  [[nodiscard]] SolverResult solve(const EpochInstance& instance) override;

 private:
  DpParams params_;
};

}  // namespace mvcom::baselines
