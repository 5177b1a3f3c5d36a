#include "baselines/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mvcom::baselines {

SolverResult SimulatedAnnealing::solve(const EpochInstance& instance) {
  common::Rng rng(seed_);
  const auto& committees = instance.committees();
  const std::size_t total = instance.size();

  // Start from a *neutrally* repaired random selection — the repair only
  // restores feasibility; any quality must come from the annealing itself.
  Selection x(total, 0);
  for (std::size_t i = 0; i < total; ++i) x[i] = rng.bernoulli(0.5) ? 1 : 0;
  SolverResult result;
  if (!repair_random(instance, x, rng)) {
    result.utility_trace.assign(params_.iterations, 0.0);
    return result;  // infeasible instance
  }

  SelectionStats st = instance.stats(x);
  double utility = instance.utility(x);

  double best_utility = -std::numeric_limits<double>::infinity();
  Selection best;
  if (instance.n_min_ok(st)) {
    best_utility = utility;
    best = x;
  }

  // Initial temperature: a fraction of the spread of single-committee gains
  // so early iterations accept most moves.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < total; ++i) {
    lo = std::min(lo, instance.gain(i));
    hi = std::max(hi, instance.gain(i));
  }
  double temperature = std::max(1.0, 0.5 * (hi - lo));
  constexpr double kCooling = 0.999;  // geometric decay per iteration
  constexpr double kMinTemperature = 1e-6;
  constexpr double kSwapProbability = 0.5;  // a move is a swap, else a flip

  result.utility_trace.reserve(params_.iterations);
  for (std::size_t it = 0; it < params_.iterations; ++it) {
    // Propose: swap (cardinality-preserving) or flip (explores cardinality).
    double delta = 0.0;
    std::size_t flip_a = total;
    std::size_t flip_b = total;
    if (st.chosen > 0 && st.chosen < total &&
        rng.bernoulli(kSwapProbability)) {
      // Swap a random selected with a random unselected committee.
      std::size_t out;
      std::size_t in;
      do {
        out = static_cast<std::size_t>(rng.below(total));
      } while (!x[out]);
      do {
        in = static_cast<std::size_t>(rng.below(total));
      } while (x[in]);
      if (st.txs - committees[out].txs + committees[in].txs <=
          instance.capacity()) {
        delta = instance.gain(in) - instance.gain(out);
        flip_a = out;
        flip_b = in;
      }
    } else {
      const auto i = static_cast<std::size_t>(rng.below(total));
      if (x[i]) {
        delta = -instance.gain(i);
        flip_a = i;
      } else if (st.txs + committees[i].txs <= instance.capacity()) {
        delta = instance.gain(i);
        flip_a = i;
      }
    }

    if (flip_a != total) {
      const bool accept =
          delta >= 0.0 || rng.uniform01() < std::exp(delta / temperature);
      if (accept) {
        // Apply the move.
        auto apply = [&](std::size_t i) {
          if (x[i]) {
            x[i] = 0;
            --st.chosen;
            st.txs -= committees[i].txs;
          } else {
            x[i] = 1;
            ++st.chosen;
            st.txs += committees[i].txs;
          }
        };
        apply(flip_a);
        if (flip_b != total) apply(flip_b);
        utility += delta;
        if (instance.n_min_ok(st) && utility > best_utility) {
          best_utility = utility;
          best = x;
        }
      }
    }

    temperature = std::max(kMinTemperature, temperature * kCooling);
    result.utility_trace.push_back(
        best.empty() ? std::numeric_limits<double>::quiet_NaN()
                     : best_utility);
  }

  result.iterations = params_.iterations;
  result.best = std::move(best);
  finalize_result(instance, result);
  return result;
}

}  // namespace mvcom::baselines
