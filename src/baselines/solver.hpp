#pragma once
// Common interface for the committee-selection solvers compared in §VI:
// the SE algorithm (src/mvcom) against Simulated Annealing, Dynamic
// Programming, and the Whale Optimization Algorithm, plus two extras used
// as ground truth and sanity baselines (Exhaustive, Greedy).

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"

namespace mvcom::baselines {

using core::Committee;
using core::EpochInstance;
using core::Selection;
using core::SelectionStats;

struct SolverResult {
  Selection best;                     // empty when infeasible
  double utility = 0.0;
  double valuable_degree = 0.0;
  bool feasible = false;
  std::size_t iterations = 0;
  /// Best-feasible-so-far utility after each iteration (iterative solvers;
  /// single-shot solvers emit one point).
  std::vector<double> utility_trace;
};

/// Abstract solver.
class Solver {
 public:
  virtual ~Solver() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual SolverResult solve(const EpochInstance& instance) = 0;
};

/// Neutral feasibility repair: drops uniformly random selected committees
/// until capacity holds, then adds random fitting committees until N_min,
/// falling back to core::top_up when the random fill strands capacity.
/// Metaheuristic baselines use it so that their reported quality reflects
/// their own search, not an informed repair's. Returns false when no
/// feasible repair was found.
bool repair_random(const EpochInstance& instance, Selection& x,
                   common::Rng& rng);

/// Fills in utility/valuable-degree fields from a candidate selection.
void finalize_result(const EpochInstance& instance, SolverResult& result);

}  // namespace mvcom::baselines
