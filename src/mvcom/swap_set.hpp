#pragma once
// SwapSet — the index structure behind every Markov-chain solution f_n:
// a partition of {0..I-1} into selected / unselected with O(1) uniform
// sampling from either side and O(1) swap (the state transition of Alg. 3,
// which flips exactly one x_i from 1 to 0 and another from 0 to 1).
//
// Layout: one permutation array `items_` whose first n positions hold the
// selected committees and whose remaining I−n positions hold the unselected
// ones. Callers work in positions, not committee ids: sampling returns a
// uniform position on one side of the n boundary (the same Rng::below draw
// as picking the committee stored there), at(pos) reads the committee, and
// a transition exchanges the two positions — two 16-bit stores and no
// inverse permutation to maintain. Committee indices are stored in 16 bits,
// so one chain costs 2 bytes per committee: an SeExplorer's full family at
// |I| ≈ 900 (900 chains) is ~1.6 MB and fits a 2 MiB per-core L2, which is
// where the dependent draw → random read → branch chain of a Metropolis
// step spends its time.
// The price is a universe cap of kMaxUniverse = 65,536 committees, which
// SeScheduler enforces; the largest in-tree instance is 50,000.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"

namespace mvcom::core {

class SwapSet {
 public:
  /// Largest universe a SwapSet indexes (committee indices are 16-bit).
  static constexpr std::size_t kMaxUniverse = std::size_t{1} << 16;

  SwapSet() = default;

  /// Builds from a selection bitmap.
  explicit SwapSet(const Selection& x) { rebuild(x); }

  /// Rebuilds from a bitmap, reusing the existing buffer (no allocation
  /// when the universe size is unchanged). Both sides keep ascending index
  /// order, so rebuild order is deterministic. Precondition:
  /// x.size() <= kMaxUniverse.
  void rebuild(const Selection& x) {
    assert(x.size() <= kMaxUniverse);
    const auto total = static_cast<std::uint32_t>(x.size());
    items_.resize(total);
    n_ = 0;
    for (std::uint32_t i = 0; i < total; ++i) {
      if (x[i]) ++n_;
    }
    std::uint32_t sel = 0;
    std::uint32_t unsel = n_;
    for (std::uint32_t i = 0; i < total; ++i) {
      items_[x[i] ? sel++ : unsel++] = static_cast<std::uint16_t>(i);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t selected_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t unselected_count() const noexcept {
    return items_.size() - n_;
  }

  /// The committee at position `pos`; positions [0, selected_count()) are
  /// the selected side.
  [[nodiscard]] std::uint32_t at(std::uint32_t pos) const {
    assert(pos < items_.size());
    return items_[pos];
  }

  /// Uniform random position on the selected side, [0, n).
  /// Precondition: selected_count() > 0.
  [[nodiscard]] std::uint32_t sample_selected_position(
      common::Rng& rng) const {
    assert(n_ > 0);
    return static_cast<std::uint32_t>(rng.below(n_));
  }
  /// Uniform random position on the unselected side, [n, I).
  /// Precondition: unselected_count() > 0.
  [[nodiscard]] std::uint32_t sample_unselected_position(
      common::Rng& rng) const {
    assert(n_ < items_.size());
    return n_ + static_cast<std::uint32_t>(rng.below(items_.size() - n_));
  }

  /// Applies the transition x_at(p): 1→0, x_at(q): 0→1 by exchanging the
  /// two positions. Precondition: p < n <= q < size().
  void swap_positions(std::uint32_t p, std::uint32_t q) {
    assert(p < n_ && q >= n_ && q < items_.size());
    std::swap(items_[p], items_[q]);
  }

  /// Materializes the bitmap.
  [[nodiscard]] Selection to_selection() const {
    Selection x(items_.size(), 0);
    write_selection(x);
    return x;
  }

  /// Writes the bitmap into a caller-owned buffer (resized as needed) —
  /// the allocation-free variant for hot paths with a scratch Selection.
  void write_selection(Selection& x) const {
    x.assign(items_.size(), 0);
    for (std::uint32_t k = 0; k < n_; ++k) x[items_[k]] = 1;
  }

  [[nodiscard]] std::span<const std::uint16_t> selected() const noexcept {
    return {items_.data(), n_};
  }

 private:
  std::vector<std::uint16_t> items_;  // permutation; [0, n_) = selected
  std::uint32_t n_ = 0;               // selected count / side boundary
};

}  // namespace mvcom::core
