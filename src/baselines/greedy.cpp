#include "baselines/greedy.hpp"

#include <limits>

namespace mvcom::baselines {

SolverResult Greedy::solve(const EpochInstance& instance) {
  SolverResult result;
  result.iterations = 1;
  result.best = core::greedy(instance);
  finalize_result(instance, result);
  result.utility_trace.assign(
      1, result.feasible ? result.utility
                         : std::numeric_limits<double>::quiet_NaN());
  return result;
}

}  // namespace mvcom::baselines
