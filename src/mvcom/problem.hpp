#pragma once
// The MVCom utility-maximization problem (paper §III).
//
// Given member-committee reports (s_i TXs, l_i two-phase latency) and a
// deadline t = max_i l_i, select x ∈ {0,1}^I maximizing
//     U(x) = Σ_i ( α · x_i · s_i  −  Π_i ),   Π_i = x_i (t − l_i)     (Eq. 1–2)
// subject to  Σ x_i ≥ N_min (Eq. 3)  and  Σ x_i s_i ≤ Ĉ (Eq. 4).
//
// The problem is NP-hard (Lemma 1, reduction from 0/1 knapsack); this header
// defines the instance, selections, and O(1)-delta utility evaluation that
// every solver in src/mvcom and src/baselines shares, plus the knapsack
// view's fractional bound and greedy walk.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "txn/workload.hpp"

namespace mvcom::core {

/// One member committee as seen by the final committee.
struct Committee {
  std::uint32_t id = 0;
  std::uint64_t txs = 0;       // s_i
  double latency = 0.0;        // l_i, seconds
};

/// x ∈ {0,1}^I — index-aligned with EpochInstance::committees().
using Selection = std::vector<std::uint8_t>;

/// Aggregates a solver maintains incrementally alongside a Selection.
struct SelectionStats {
  std::size_t chosen = 0;       // Σ x_i
  std::uint64_t txs = 0;        // Σ x_i s_i
};

/// An immutable problem instance for one epoch.
class EpochInstance {
 public:
  /// `deadline` < 0 means "derive t = max_i latency" (the paper's default
  /// t_j = max_{i∈I_j} l_i).
  EpochInstance(std::vector<Committee> committees, double alpha,
                std::uint64_t capacity, std::size_t n_min,
                double deadline = -1.0);

  /// Builds an instance from workload reports.
  static EpochInstance from_reports(std::span<const txn::ShardReport> reports,
                                    double alpha, std::uint64_t capacity,
                                    std::size_t n_min, double deadline = -1.0);

  [[nodiscard]] const std::vector<Committee>& committees() const noexcept {
    return committees_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return committees_.size(); }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t n_min() const noexcept { return n_min_; }
  [[nodiscard]] double deadline() const noexcept { return deadline_; }

  /// Cumulative age of committee i's shard if permitted: Π_i = t − l_i.
  /// Non-negative whenever the deadline is the max latency.
  [[nodiscard]] double age(std::size_t i) const {
    return deadline_ - committees_[i].latency;
  }

  /// Marginal utility of permitting committee i: α·s_i − (t − l_i).
  [[nodiscard]] double gain(std::size_t i) const {
    return alpha_ * static_cast<double>(committees_[i].txs) - age(i);
  }

  /// Full utility U(x). Precondition: x.size() == size().
  [[nodiscard]] double utility(const Selection& x) const;

  /// U(x') − U(x) where x' swaps `out` (currently 1) for `in` (currently 0)
  /// — the Markov-chain transition of Alg. 3 in O(1).
  [[nodiscard]] double swap_delta(std::size_t out, std::size_t in) const {
    return gain(in) - gain(out);
  }

  [[nodiscard]] SelectionStats stats(const Selection& x) const;
  [[nodiscard]] bool capacity_ok(const SelectionStats& st) const noexcept {
    return st.txs <= capacity_;
  }
  [[nodiscard]] bool n_min_ok(const SelectionStats& st) const noexcept {
    return st.chosen >= n_min_;
  }
  [[nodiscard]] bool feasible(const Selection& x) const {
    const SelectionStats st = stats(x);
    return capacity_ok(st) && n_min_ok(st);
  }

  /// Valuable Degree of a selection (paper §VI-E): Σ x_i · s_i / Π_i.
  /// Π_i = 0 for the latest-arriving shard; a floor of 1 s under Π_i guards
  /// the division — shared by all algorithms, so rankings are ε-insensitive.
  [[nodiscard]] double valuable_degree(const Selection& x) const;

  /// Total TXs permitted — the throughput component of the objective.
  [[nodiscard]] std::uint64_t permitted_txs(const Selection& x) const;

  /// Σ s_i over ALL committees. Guaranteed not to have wrapped: construction
  /// rejects committee sets whose total exceeds 2^64−1, so every subset sum
  /// computed anywhere downstream (prefix sums, incremental swap
  /// bookkeeping) is exact.
  [[nodiscard]] std::uint64_t total_txs() const noexcept { return total_txs_; }

  /// Cumulative age Σ Π_i over permitted shards.
  [[nodiscard]] double cumulative_age(const Selection& x) const;

 private:
  std::vector<Committee> committees_;
  double alpha_;
  std::uint64_t capacity_;
  std::size_t n_min_;
  double deadline_;
  std::uint64_t total_txs_ = 0;
};

/// Dantzig's fractional-knapsack bound on U(x) over every selection that
/// fits Ĉ (Eq. 4), so also over every feasible one: N_min (Eq. 3) is
/// dropped, which can only raise the optimum. With t fixed each gain is
/// linear in x_i, so the LP relaxation of Lemma 1's knapsack takes the
/// positive-gain committees in descending gain/s_i order (ties by index)
/// whole while they fit Ĉ, then the fitting fraction of the first that does
/// not. O(|I| log |I|). 0 when no gain is positive, and when Ĉ = 0 unless
/// an explicit deadline gives a zero-TX committee a positive gain.
[[nodiscard]] double fractional_bound(const EpochInstance& instance);

/// The certificate behind SeParams::gap_tolerance, shared by SE and the
/// serve pipeline: tolerance > 0 and bound − utility ≤ tolerance·|bound|.
[[nodiscard]] bool certifies(double bound, double utility,
                             double tolerance) noexcept;

/// Lemma 1's greedy knapsack walk: the positive-gain committees in
/// fractional_bound's order (descending gain/s_i, ties by index), each taken
/// when it still fits Ĉ, then top_up toward N_min. Empty when top_up cannot
/// reach N_min, feasible otherwise. At N_min = 0 it never fails, and it
/// reaches fractional_bound where every positive-gain committee fits.
/// O(|I| log |I|).
[[nodiscard]] Selection greedy(const EpochInstance& instance);

/// Adds the smallest unselected shards (ties by index) that still fit Ĉ to
/// `x` until it holds N_min committees. `x` must fit Ĉ. Returns the topped-up
/// selection, or an empty one when N_min is unreachable this way.
[[nodiscard]] Selection top_up(const EpochInstance& instance, Selection x);

/// The exact Eq. (3)+(4) feasibility witness: the n_min smallest shards of
/// `reports` (ties by index), index-aligned with them. Any feasible
/// selection's n_min smallest members weigh at least as much, so nullopt —
/// fewer than n_min reports, or the witness above `capacity` — means no
/// feasible selection exists. n_min = 0 gives the empty selection. O(|I|),
/// and the sum cannot wrap. The ladder's greedy-scratch rung commits it when
/// the greedy fails; the risk policy's N_min clamp and the chaos harness
/// test its existence.
[[nodiscard]] std::optional<Selection> n_min_witness(
    std::span<const txn::ShardReport> reports, std::uint64_t capacity,
    std::size_t n_min);

/// (bound − utility) / |bound|: how far a selection may still be from the
/// optimum, relative to the bound. A zero bound gives 0 when `utility`
/// reaches it and +∞ otherwise.
[[nodiscard]] double relative_gap(double bound, double utility) noexcept;

}  // namespace mvcom::core
