// Runtime-dispatched x86 SHA-extension compression functions. sha256.cpp's
// sha256_compress and sha256_compress_x2 are the intended callers (tests
// aside): they probe sha_ni_available() once and route runs of 64-byte
// blocks through sha_ni_compress / sha_ni_compress_x2, falling back to the
// portable C++ rounds otherwise. Both paths produce identical digests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mvcom::crypto {

/// True when the CPU implements the SHA extension (sha256rnds2 et al.).
[[nodiscard]] bool sha_ni_available() noexcept;

/// Absorbs `blocks` consecutive 64-byte blocks into `state` (8 words, the
/// working variables a..h). Must only be called when sha_ni_available().
void sha_ni_compress(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) noexcept;

/// Two independent streams at once, interleaved: `blocks` blocks of
/// `data_a` into `state_a` and as many of `data_b` into `state_b`. Must only
/// be called when sha_ni_available().
void sha_ni_compress_x2(std::uint32_t* state_a, const std::uint8_t* data_a,
                        std::uint32_t* state_b, const std::uint8_t* data_b,
                        std::size_t blocks) noexcept;

}  // namespace mvcom::crypto
