#pragma once
// Deterministic pseudo-random number generation for the MVCom simulator.
//
// Every stochastic component in this repository draws from an explicitly
// seeded engine so that traces, experiments, and tests are reproducible
// bit-for-bit across runs and machines. We implement xoshiro256** (public
// domain, Blackman & Vigna) seeded through SplitMix64, rather than relying on
// std::mt19937_64, because (a) the state is tiny and cheap to fork per
// component, and (b) the output sequence is fully specified — unlike the
// standard distributions, whose exact sequences are implementation-defined.
// All distribution transforms below are therefore hand-rolled and portable.

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <cstddef>

namespace mvcom::common {

/// SplitMix64 — used solely to expand a 64-bit seed into engine state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — general-purpose 64-bit engine with 256-bit state.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Forks an independent child engine. The child's seed is drawn from this
  /// engine, so a single top-level seed deterministically derives the whole
  /// tree of per-component engines.
  Rng fork() noexcept { return Rng((*this)()); }

  /// Derives the `index`-th independent substream of `seed` *without* any
  /// shared engine state. fork() is inherently order-dependent — each child
  /// seed is a draw from the parent — which is fine inside one epoch where
  /// fork order is fixed, but breaks down when overlapped epochs must draw
  /// concurrently (the streaming pipeline runs formation for epoch e+1 while
  /// epoch e is still scheduling). stream() instead jumps the SplitMix64
  /// seeder ahead by `index` increments of its Weyl constant, so
  /// stream(seed, i) for distinct i are decorrelated, reproducible in any
  /// order, and never alias regardless of how many draws other streams made.
  static Rng stream(std::uint64_t seed, std::uint64_t index) noexcept {
    SplitMix64 sm(seed + 0x9e3779b97f4a7c15ULL * index);
    return Rng(sm.next());
  }

  // ---- Distribution transforms (portable, fully specified) ----

  /// Uniform real in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in [0, n) by bitmask-with-rejection: draw within the
  /// smallest enclosing power of two and reject out-of-range values.
  /// Unbiased; expected < 2 draws. Defined here so hot loops can inline it
  /// (an SE proposal draws two). Precondition: n > 0.
  std::uint64_t below(std::uint64_t n) noexcept {
    assert(n > 0);
    if (n == 1) return 0;
    const std::uint64_t mask = ~std::uint64_t{0} >> std::countl_zero(n - 1);
    for (;;) {
      const std::uint64_t candidate = (*this)() & mask;
      if (candidate < n) return candidate;
    }
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Exponential variate with the given mean (= 1/rate), by inverse CDF.
  /// Used by the latency and arrival models (network links, PoW solve time,
  /// formation stages, PBFT verification, inter-block gaps) and by the
  /// Gillespie simulation of the Eq.-(7) chain in analysis/.
  /// Precondition: mean > 0.
  double exponential(double mean) noexcept;

  /// Standard normal variate (Marsaglia polar method, portable).
  double normal(double mu = 0.0, double sigma = 1.0) noexcept;

  /// Log-normal variate parameterized by the *target* mean and standard
  /// deviation of the log-normal itself (not of the underlying normal).
  double lognormal_mean_sd(double mean, double sd) noexcept;

  /// Poisson variate (Knuth for small lambda, normal approximation above 64).
  std::uint64_t poisson(double lambda) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  // Cached spare normal variate for the polar method.
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Exact Zipf(s) sampler over the ranks {0, …, n−1}: P(k) ∝ 1/(k+1)^s.
/// Inverse-CDF: the normalized CDF is precomputed once (O(n)), each draw is
/// one uniform01() plus a binary search (O(log n)) — so the engine advances
/// exactly one step per variate, which keeps substream accounting trivial.
/// Construction is the only allocating operation; sampling is const and
/// safe to share across threads that each hold their own Rng.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument unless n >= 1 and s is finite and >= 0
  /// (s = 0 degenerates to uniform ranks).
  ZipfSampler(std::size_t n, double s);

  /// Draws one rank, consuming exactly one engine step.
  [[nodiscard]] std::uint32_t operator()(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double skew() const noexcept { return skew_; }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k), cdf_.back() == 1.0
  double skew_ = 0.0;
};

}  // namespace mvcom::common
