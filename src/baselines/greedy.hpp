#pragma once
// Greedy density heuristic (extra baseline, not in the paper): core::greedy
// packs the positive-gain committees by gain_i / s_i while the capacity
// allows, then tops up to N_min with the smallest shards. One-shot and
// deterministic — a useful sanity floor for the metaheuristics.

#include "baselines/solver.hpp"

namespace mvcom::baselines {

class Greedy final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Greedy";
  }
  [[nodiscard]] SolverResult solve(const EpochInstance& instance) override;
};

}  // namespace mvcom::baselines
