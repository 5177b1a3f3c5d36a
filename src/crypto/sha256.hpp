#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch with no external
// dependencies. The Elastico substrate uses it for block hashes, Merkle
// roots, and the PoW committee-election puzzle; the trace generator uses it
// to synthesize Bitcoin-like block hashes.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace mvcom::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// The SHA-256 initial hash value H(0), working variables a..h.
inline constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Absorbs `blocks` consecutive 64-byte blocks into `state` (8 words, the
/// working variables a..h): the SHA extension when the CPU has it (probed
/// once), the portable rounds otherwise. Callers that pad their own blocks,
/// such as the PoW grind, use this in place of a Sha256 object.
void sha256_compress(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) noexcept;

/// Two independent streams at once: `blocks` blocks of `data_a` into
/// `state_a` and as many of `data_b` into `state_b`. With the SHA extension
/// the two interleave, hiding the round instruction's latency.
void sha256_compress_x2(std::uint32_t* state_a, const std::uint8_t* data_a,
                        std::uint32_t* state_b, const std::uint8_t* data_b,
                        std::size_t blocks) noexcept;

/// The portable C++ rounds alone, whatever the CPU offers — the reference
/// the SHA-extension path is tested against.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// Big-endian serialization of a final `state` — the digest.
[[nodiscard]] Digest digest_of(const std::uint32_t* state) noexcept;

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(data1); h.update(data2);
///   Digest d = h.finalize();
///
/// finalize() may be called exactly once; the object is then spent.
class Sha256 {
 public:
  /// Absorbs `data` into the hash state.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  /// Pads, finishes, and returns the digest.
  [[nodiscard]] Digest finalize() noexcept;

  /// One-shot helpers.
  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Digest hash(std::string_view text) noexcept;
  /// Bitcoin-style double hash: SHA256(SHA256(x)).
  [[nodiscard]] static Digest double_hash(std::string_view text) noexcept;

 private:
  std::array<std::uint32_t, 8> state_ = kSha256Init;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// Lowercase hex encoding of a digest.
[[nodiscard]] std::string to_hex(const Digest& d);

/// Interprets the first 8 bytes of the digest as a big-endian integer —
/// the quantity compared against a PoW target.
[[nodiscard]] std::uint64_t leading64(const Digest& d) noexcept;

/// Number of leading zero bits in the digest.
[[nodiscard]] int leading_zero_bits(const Digest& d) noexcept;

}  // namespace mvcom::crypto
