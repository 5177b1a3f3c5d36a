#pragma once
// Closed-form theoretical quantities from the paper's analysis sections:
//  * Theorem 1 — mixing-time lower/upper bounds (Eq. 12–13);
//  * Remark 1 — log-sum-exp optimality loss (1/β)·log|F|;
//  * Theorem 2 — utility-perturbation bound on committee failure.
// (Lemma 4's d_TV ≤ 1/2 is measured against markov.hpp's exact chains.)
// The upper bound of Eq. 13 contains a 4^|I| factor, so everything is
// computed in log-space.

#include <cstddef>

namespace mvcom::analysis {

struct MixingTimeBounds {
  double log_lower;  // ln of Eq. (12)'s right-hand side
  double log_upper;  // ln of Eq. (13)'s right-hand side
};

/// Theorem 1. `utility_spread` = U_max − U_min over the solution space,
/// `epsilon` the target total-variation gap (0 < ε < 1/2).
[[nodiscard]] MixingTimeBounds mixing_time_bounds(std::size_t num_committees,
                                                  double beta, double tau,
                                                  double utility_spread,
                                                  double epsilon);

/// Remark 1: the approximation loss of MVCom(β) is (1/β)·log|F| with
/// |F| = 2^|I|, i.e. (|I|·ln 2)/β.
[[nodiscard]] double log_sum_exp_optimality_loss(std::size_t num_committees,
                                                 double beta);

/// Theorem 2: ‖q*uᵀ − q̃uᵀ‖ ≤ max_{g∈G} U_g.
[[nodiscard]] double failure_perturbation_bound(double max_utility_trimmed);

}  // namespace mvcom::analysis
