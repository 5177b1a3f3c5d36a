#pragma once
// Exhaustive search — exact ground truth for small instances (|I| <= 24).
// Used by property tests to certify the SE scheduler's near-optimality and
// by the theory benches to enumerate the full solution space F.

#include "baselines/solver.hpp"

namespace mvcom::baselines {

class Exhaustive final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Exhaustive";
  }
  /// Throws std::invalid_argument when the instance has more than 24
  /// committees (2^|I| states — keep it honest).
  [[nodiscard]] SolverResult solve(const EpochInstance& instance) override;
};

}  // namespace mvcom::baselines
