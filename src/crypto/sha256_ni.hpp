// Runtime-dispatched x86 SHA-extension compression function. sha256.cpp's
// sha256_compress is the intended caller (tests aside): it probes
// sha_ni_available() once and routes runs of 64-byte blocks through
// sha_ni_compress, falling back to the portable C++ rounds otherwise. Both
// paths produce identical digests.
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

}  // namespace mvcom::crypto
