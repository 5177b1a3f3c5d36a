#pragma once
// Simulated Annealing baseline (paper §VI-B, citing Knust & Xie 2019):
// Metropolis search over selections with a geometric cooling schedule.
// Moves are single-bit flips and swaps; capacity is enforced on every move
// and N_min at best-tracking time, mirroring how the SE scheduler treats
// the two constraints.

#include "baselines/solver.hpp"

namespace mvcom::baselines {

struct SaParams {
  std::size_t iterations = 5000;
};

class SimulatedAnnealing final : public Solver {
 public:
  SimulatedAnnealing(SaParams params, std::uint64_t seed)
      : params_(params), seed_(seed) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "SA";
  }
  [[nodiscard]] SolverResult solve(const EpochInstance& instance) override;

 private:
  SaParams params_;
  std::uint64_t seed_;
};

}  // namespace mvcom::baselines
