// Runtime-dispatched 16-lane SHA-256 grind for AVX-512F. The PoW grind
// (PowMidstate::solve) is the intended caller, tests aside: it probes
// avx512f_available() once and hands sha256_x16_grind whole groups of 16
// consecutive one-block nonces. Lane l of a pass hashes nonce n + l: one
// 64-byte block absorbed into the same chaining state. The blocks begin with
// the same prefix words, so the rounds those words feed run once per call and
// each pass starts after them. Between passes the lanes step by 16 in their
// message rows, as a vector decimal add, and a pass's winner test is one
// compare of every lane's state words 0–1 with the target. Every lane's
// state is bit-identical to sha256_compress_portable on its block.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mvcom::crypto {

/// True when the CPU (and the OS's saved register state) supports AVX-512F.
[[nodiscard]] bool avx512f_available() noexcept;

/// One grind: the first nonce's padded tail block and what the kernel needs
/// to step it.
struct Sha256x16Grind {
  std::uint32_t chain[8];  // chaining state the tail block goes into
  /// The first nonce's one-block tail: prefix bytes, its decimal digits
  /// from `digits_at`, 0x80, zeros, and the message's bit length.
  std::uint8_t block[64];
  std::size_t digits_at;   // block byte of the first digit
  std::size_t width;       // decimal digits of the first nonce
  std::uint64_t target;    // a digest wins when its leading 64 bits are below
};

/// Hashes the 16·`groups` nonces n, n + 1, … from the block's n, 16 per
/// pass, and returns the offset of the first whose digest wins, writing its
/// final state to `state`; returns 16·`groups` when none does. Every nonce
/// must fit the block (digits_at + digits <= 55) and none may pass
/// 2^64 − 1. Must only be called when avx512f_available().
[[nodiscard]] std::uint64_t sha256_x16_grind(
    const Sha256x16Grind& grind, std::uint64_t groups,
    std::uint32_t (&state)[8]) noexcept;

}  // namespace mvcom::crypto
