#pragma once
// Exact and simulated analysis of the SE Markov chain on small instances.
//
// For |I| small enough to enumerate (≤ 20 committees):
//  * enumerate the capacity-feasible solution space F (all subsets, the
//    paper's space; Alg. 2 keeps only Cons.-(4)-feasible states);
//  * compute the closed-form stationary distribution p*_f ∝ exp(β U_f)
//    (Eq. 6);
//  * simulate the continuous-time chain with rates
//    q_{f,f'} = exp(−τ + ½β(U_{f'} − U_f)) (Eq. 7) by the Gillespie method
//    and report time-weighted state occupancy — property tests check this
//    converges to p*, which is precisely the detailed-balance claim of
//    Lemma 3;
//  * evaluate Lemma 4 (d_TV between the trimmed-space stationary q* and the
//    at-failure distribution q̃) and Theorem 2 (utility perturbation)
//    exactly, no i.i.d. assumption needed.
//
// Transitions here are the paper's swap moves (condition a/b of §IV-C.1):
// states of equal cardinality differing in exactly one swapped pair.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"

namespace mvcom::analysis {

using core::EpochInstance;

/// The enumerated solution space of one cardinality class n (the SE chain
/// decomposes into per-cardinality components; swaps preserve |f|).
struct SolutionSpace {
  std::size_t cardinality = 0;
  std::vector<std::uint32_t> states;  // bitmasks, capacity-feasible only
  std::vector<double> utilities;      // aligned with states
};

/// Enumerates all capacity-feasible cardinality-n subsets.
/// Precondition: instance.size() <= 20.
[[nodiscard]] SolutionSpace enumerate_space(const EpochInstance& instance,
                                            std::size_t cardinality);

/// Enumerates the paper's full space F (all cardinalities, every subset) —
/// the space of Lemma 4/Theorem 2, which ignore the capacity constraint.
/// Precondition: instance.size() <= 20.
[[nodiscard]] SolutionSpace enumerate_full_space(const EpochInstance& instance);

/// Eq. (6): p*_f = exp(βU_f) / Σ exp(βU_f'), computed with the max-shift
/// trick for numerical stability.
[[nodiscard]] std::vector<double> stationary_distribution(
    const SolutionSpace& space, double beta);

/// The Eq.-(7) swap graph of `space`: each state's swap neighbours inside
/// `space` (removed bit ascending, then added bit ascending) with rates
/// exp(−τ + ½β(U_f′ − U_f) − shift), and their sum, the exit rate. A
/// non-zero `shift` rescales every rate by one factor, i.e. only time.
struct RateGraph {
  struct Edge {
    std::size_t to = 0;
    double rate = 0.0;
  };
  std::vector<std::vector<Edge>> edges;  // per state
  std::vector<double> exit_rate;         // per state: Σ rate over its edges

  /// The Gillespie jump out of `state` (which must have an edge): one
  /// uniform01 draw picks a neighbour with probability ∝ its rate.
  [[nodiscard]] std::size_t pick(std::size_t state, common::Rng& rng) const;
};
[[nodiscard]] RateGraph build_rate_graph(const SolutionSpace& space,
                                         double beta, double tau,
                                         double shift);

/// Gillespie simulation of the CTMC with Eq.-(7) rates over `space` for
/// `transitions` jumps; returns time-weighted occupancy per state.
[[nodiscard]] std::vector<double> simulate_occupancy(
    const SolutionSpace& space, double beta, double tau,
    std::size_t transitions, common::Rng& rng);

/// Total-variation distance ½ Σ |p_i − q_i|.
[[nodiscard]] double total_variation(const std::vector<double>& p,
                                     const std::vector<double>& q);

/// Lemma-4 evaluation on a concrete instance: d_TV(q*, q̃) where G is the
/// subspace of `space` avoiding committee `failed`, q* is Eq. (6) on G, and
/// q̃ is Eq. (6) on F restricted to G (renormalized as in Eq. 16).
struct FailurePerturbation {
  double tv_distance = 0.0;        // d_TV(q*, q̃)
  double utility_shift = 0.0;      // |q*uᵀ − q̃uᵀ| (Theorem 2 LHS)
  double max_trimmed_utility = 0.0;  // max_{g∈G} U_g (Theorem 2 RHS)
  double trimmed_fraction = 0.0;   // |F\G| / |F|
};
[[nodiscard]] FailurePerturbation failure_perturbation(
    const SolutionSpace& space, double beta, std::uint32_t failed);

}  // namespace mvcom::analysis
