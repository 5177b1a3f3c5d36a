#include "analysis/theory.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mvcom::analysis {

MixingTimeBounds mixing_time_bounds(std::size_t num_committees, double beta,
                                    double tau, double utility_spread,
                                    double epsilon) {
  // Negated comparisons so that NaN fails too.
  if (num_committees < 2 || !(beta > 0.0) || !(utility_spread >= 0.0) ||
      !(epsilon > 0.0 && epsilon < 0.5)) {
    throw std::invalid_argument(
        "mixing_time_bounds: needs |I| >= 2, beta > 0, spread >= 0 and "
        "0 < epsilon < 1/2");
  }

  const auto I = static_cast<double>(num_committees);
  const double spread_term = beta * utility_spread;
  const double pair_count = I * I - I;  // |I|² − |I|
  const double ln_inv_2eps = std::log(1.0 / (2.0 * epsilon));

  MixingTimeBounds bounds{};
  // Eq. (12): exp[τ − ½β(Umax−Umin)] / (|I|²−|I|) · ln(1/2ε).
  bounds.log_lower =
      tau - 0.5 * spread_term - std::log(pair_count) + std::log(ln_inv_2eps);
  // Eq. (13): 4^|I| (|I|²−|I|) exp[(3/2)β(Umax−Umin) + τ] ·
  //           [ln(1/2ε) + ½|I| ln2 + ½β(Umax−Umin)].
  const double bracket =
      ln_inv_2eps + 0.5 * I * std::numbers::ln2 + 0.5 * spread_term;
  bounds.log_upper = I * std::log(4.0) + std::log(pair_count) +
                     1.5 * spread_term + tau + std::log(bracket);
  return bounds;
}

double log_sum_exp_optimality_loss(std::size_t num_committees, double beta) {
  if (!(beta > 0.0)) {
    throw std::invalid_argument("log_sum_exp_optimality_loss: needs beta > 0");
  }
  return static_cast<double>(num_committees) * std::numbers::ln2 / beta;
}

}  // namespace mvcom::analysis
