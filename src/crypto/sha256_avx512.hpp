// Runtime-dispatched 16-lane SHA-256 compression for AVX-512F. The PoW
// grind (PowMidstate::solve) is the intended caller, tests aside: it probes
// avx512f_available() once and hashes 16 consecutive nonces per pass, each
// lane one 64-byte block absorbed into the same chaining state. The blocks
// begin with the same prefix words, so the rounds those words feed run once
// (sha256_x16_prefix) and each pass starts after them. Lane l's output is
// bit-identical to sha256_compress_portable on lane l's block.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mvcom::crypto {

/// True when the CPU (and the OS's saved register state) supports AVX-512F.
[[nodiscard]] bool avx512f_available() noexcept;

/// What the 16 lanes of a pass share.
struct Sha256x16Prefix {
  std::uint32_t chain[8];   // chaining state each lane's block goes into
  std::uint32_t words[16];  // message words [0, rounds), equal in every lane
  std::size_t rounds;       // precomputed rounds, 0..15
  std::uint32_t vars[8];    // working variables a..h after those rounds
};

/// Runs the prefix's `rounds` shared rounds from `chain` over `words` and
/// fills `vars`. Must only be called when avx512f_available().
void sha256_x16_prefix(Sha256x16Prefix& prefix) noexcept;

/// Compresses 16 one-block messages that start with `prefix.words`.
/// `words[i][l]` is lane l's message word i, the big-endian value of its
/// block bytes 4i..4i+3; rows below prefix.rounds are not read. Writes lane
/// l's new chaining word j to `state[j][l]`. Must only be called when
/// avx512f_available().
void sha256_x16_compress(const Sha256x16Prefix& prefix,
                         const std::uint32_t (&words)[16][16],
                         std::uint32_t (&state)[8][16]) noexcept;

}  // namespace mvcom::crypto
