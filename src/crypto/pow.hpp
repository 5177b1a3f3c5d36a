#pragma once
// Proof-of-Work puzzle used by Elastico's committee-formation stage: each
// node searches for a nonce such that SHA256(epoch_randomness || identity ||
// nonce) falls below a difficulty target. The low-order bits of the solution
// hash assign the node to a committee (Elastico §committee formation).
//
// Two facets are provided:
//  * an *actual* solver (`solve`) that grinds real SHA-256 — used by the
//    serve pipeline's stage A (`pow_grind_bits`), unit tests and the
//    quickstart example; and
//  * a *latency model* (`model_solve_latency`) used by the large-scale
//    simulator, where grinding billions of hashes is pointless: solve time
//    for a Poisson-process puzzle is exponentially distributed with mean
//    (expected_attempts / hash_rate), exactly the paper's Exp(600 s) model.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "crypto/sha256.hpp"

namespace mvcom::crypto {

/// Difficulty expressed as "the leading 64 bits of the digest must be below
/// this target". Smaller target = harder puzzle.
struct PowTarget {
  std::uint64_t leading64_below;

  /// Target for which a single hash succeeds with probability 2^-bits.
  /// Throws std::invalid_argument unless 0 <= bits <= 63.
  [[nodiscard]] static PowTarget from_difficulty_bits(int bits);

  /// Expected number of hash attempts to find a solution.
  [[nodiscard]] double expected_attempts() const noexcept;
};

/// A found PoW solution.
struct PowSolution {
  std::uint64_t nonce;
  Digest digest;
};

/// The preimage convention's epoch-wide head, absorbed once: the SHA-256
/// chaining state after `epoch_randomness|`'s whole blocks, plus its last
/// bytes. A call lays out identity, '|', decimal nonce and padding after
/// them and compresses from a copy of the state, so the identities of one
/// epoch (Elastico's stage 1) pay for the randomness once. Past 55 bytes
/// the layout spills into more blocks; behind a 64-character randomness a
/// 32-bit node id's `|node-<id>|<nonce>` takes at most 37, one compression.
class PowPrefix {
 public:
  explicit PowPrefix(std::string_view epoch_randomness) noexcept;

  /// SHA256(epoch_randomness || '|' || identity || '|' || decimal(nonce)).
  [[nodiscard]] Digest digest(std::string_view identity,
                              std::uint64_t nonce) const noexcept;

  /// committee_of(digest(identity, nonce), committee_bits), read from
  /// final state word 7 (the digest's last four bytes), no digest built.
  [[nodiscard]] std::uint32_t committee(std::string_view identity,
                                        std::uint64_t nonce,
                                        int committee_bits) const noexcept;

 private:
  /// The chaining state after the whole padded preimage.
  [[nodiscard]] std::array<std::uint32_t, 8> final_state(
      std::string_view identity, std::uint64_t nonce) const noexcept;

  std::array<std::uint32_t, 8> chain_ = kSha256Init;  // after whole blocks
  std::array<std::uint8_t, 128> tail_{};  // the head's last (< 64) bytes
  std::size_t tail_len_ = 0;              // head bytes in tail_
  std::uint64_t head_len_ = 0;            // head bytes in total
};

/// Preimage convention shared by solver and verifier:
/// SHA256(epoch_randomness || '|' || identity || '|' || decimal(nonce)).
/// One plain Sha256 over the whole preimage — the independent reference
/// every PowPrefix and PowMidstate result is tested against.
[[nodiscard]] Digest pow_digest(std::string_view epoch_randomness,
                                std::string_view identity,
                                std::uint64_t nonce) noexcept;

/// The PoW grind's fixed-block kernel. It keeps the SHA-256 chaining state
/// after the constant `randomness|identity|` prefix's whole 64-byte blocks,
/// plus a tail block that holds the prefix's remaining bytes. The nonce's
/// decimal digits and the padding complete that block, so an attempt costs
/// one compression from the cached state — two only when the prefix tail
/// plus the digits pass 55 bytes and the length field spills into a second
/// block. On CPUs with AVX-512F, solve() hands whole groups of 16 one-block
/// nonces to sha256_x16_grind (sha256_avx512.hpp): lanes hold nonces
/// n … n + 15, the rounds fed by the tail block's whole prefix words
/// (tail_len_ / 4 of them) run once per solve(), the lanes step by 16 as a
/// vector decimal add in their message rows (lanes may differ in width, and
/// a lane that gains a digit re-pads there), and each pass compares every
/// lane's state words 0–1 with the target; the lowest winning lane's state
/// is the digest. Attempts no group can take — fewer than 16 left, a group
/// that would pass 2^64 − 1, a two-block tail — and CPUs without AVX-512F
/// hash one nonce per sha256_compress (SHA-NI or the portable rounds),
/// incrementing the digits in place and re-padding only on a new digit.
/// Every path is bit-identical to pow_digest for every nonce, so solve()
/// returns the same first nonce whichever ground it.
class PowMidstate {
 public:
  PowMidstate(std::string_view epoch_randomness,
              std::string_view identity) noexcept;

  /// Digest of the full preimage for `nonce`.
  [[nodiscard]] Digest digest(std::uint64_t nonce) const noexcept;

  /// Tries start_nonce, start_nonce + 1, … (wrapping past 2^64 − 1 to 0)
  /// and returns the first whose digest's leading 64 bits are below
  /// `target`; gives up after `max_attempts`.
  [[nodiscard]] std::optional<PowSolution> solve(
      PowTarget target, std::uint64_t max_attempts,
      std::uint64_t start_nonce) const noexcept;

 private:
  using Block = std::array<std::uint8_t, 128>;

  /// One nonce's padded tail block(s).
  struct Attempt {
    Block block;
    std::uint64_t nonce = 0;
    std::size_t width = 0;   // decimal digits of nonce
    std::size_t blocks = 0;  // 1 or 2
  };

  /// Writes the nonce's digits after the prefix tail, then the padding.
  void lay_out(Attempt& attempt) const noexcept;
  /// Steps to the next nonce in place, re-padding only on a new digit.
  void advance(Attempt& attempt) const noexcept;

  /// How many of the `left` attempts from `nonce` the 16-lane grind takes
  /// next: whole groups of one-block nonces short of the wrap, 0 without
  /// AVX-512F.
  [[nodiscard]] std::uint64_t lane_run(std::uint64_t nonce,
                                       std::uint64_t left) const noexcept;
  /// Grinds `attempts` (a nonzero multiple of 16) nonces from `nonce` on the
  /// 16-lane grind.
  [[nodiscard]] std::optional<PowSolution> solve_x16(
      PowTarget target, std::uint64_t attempts,
      std::uint64_t nonce) const noexcept;
  /// Grinds `attempts` nonces from `nonce` one compression at a time.
  [[nodiscard]] std::optional<PowSolution> solve_x1(
      PowTarget target, std::uint64_t attempts,
      std::uint64_t nonce) const noexcept;

  std::array<std::uint32_t, 8> chain_ = kSha256Init;  // after whole blocks
  Block tail_{};                  // the prefix's last (< 64) bytes, then room
  std::size_t tail_len_ = 0;      // prefix bytes in tail_
  std::uint64_t prefix_len_ = 0;  // prefix bytes in total
};

/// Grinds nonces from `start_nonce` through a PowMidstate; gives up after
/// `max_attempts`.
[[nodiscard]] std::optional<PowSolution> solve(std::string_view epoch_randomness,
                                               std::string_view identity,
                                               PowTarget target,
                                               std::uint64_t max_attempts,
                                               std::uint64_t start_nonce = 0);

/// Checks a claimed solution against the target.
[[nodiscard]] bool verify(std::string_view epoch_randomness,
                          std::string_view identity, PowTarget target,
                          const PowSolution& solution) noexcept;

/// Committee index = last `committee_bits` bits of the solution digest —
/// the Elastico rule that a node's PoW randomly assigns its committee.
[[nodiscard]] std::uint32_t committee_of(const Digest& digest,
                                         int committee_bits) noexcept;

/// Simulated solve latency for a node with `relative_hash_rate` (1.0 =
/// reference node) on a puzzle whose reference-node expected solve time is
/// `expected_solve_time`. Memoryless search => exponential distribution.
[[nodiscard]] common::SimTime model_solve_latency(
    common::Rng& rng, common::SimTime expected_solve_time,
    double relative_hash_rate);

}  // namespace mvcom::crypto
