#pragma once
// Spectral analysis of the SE Markov chain on enumerable instances — the
// machinery behind the paper's citation [19] (Diaconis & Stroock,
// "Geometric bounds for eigenvalues of Markov chains"), which Theorem 1's
// proof leans on.
//
// For a reversible CTMC with generator Q and stationary law π, the mixing
// time obeys the relaxation-time sandwich
//     (t_rel − 1)·ln(1/2ε)  ≤  t_mix(ε)  ≤  t_rel · ln(1/(ε·π_min)),
// where t_rel = 1/λ_gap and λ_gap is the smallest positive eigenvalue of
// −Q (the spectral gap). We compute the gap exactly: reversibility lets us
// symmetrize S = D^{1/2} Q D^{-1/2} (D = diag(π)) and run deflated power
// iteration on a shifted S — no external linear-algebra dependency.

#include <cstddef>
#include <vector>

#include "analysis/markov.hpp"

namespace mvcom::analysis {

struct SpectralResult {
  double gap = 0.0;              // λ_gap of −Q (> 0 iff irreducible)
  double relaxation_time = 0.0;  // 1/λ_gap
  double pi_min = 0.0;           // smallest stationary mass
  double max_exit_rate = 0.0;    // uniformization constant Λ = max_i |Q_ii|
  /// Gap of the uniformized (discrete, per-transition) chain P = I + Q/Λ —
  /// the per-iteration mixing speed, which is what slows down as β grows
  /// (Remark 2): absolute rates explode with β, transitions don't.
  [[nodiscard]] double uniformized_gap() const {
    return max_exit_rate > 0.0 ? gap / max_exit_rate : 0.0;
  }
  /// Mixing-time bounds at accuracy ε via the relaxation-time sandwich.
  [[nodiscard]] double t_mix_upper(double epsilon) const;
  [[nodiscard]] double t_mix_lower(double epsilon) const;
};

/// Computes the spectral gap of the Eq.-(7) chain on `space` by 3000
/// power iterations. Intended for enumerated spaces of at most a few
/// thousand states.
[[nodiscard]] SpectralResult spectral_gap(const SolutionSpace& space,
                                          double beta, double tau);

}  // namespace mvcom::analysis
