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

/// The SHA-256 round constants K[0..63], shared by every compression path.
/// 16-byte aligned: the SHA-NI rounds load them four at a time.
alignas(16) inline constexpr std::uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// Absorbs `blocks` consecutive 64-byte blocks into `state` (8 words, the
/// working variables a..h): the SHA extension when the CPU has it (probed
/// once), the portable rounds otherwise. Callers that pad their own blocks,
/// such as the PoW grind, use this in place of a Sha256 object.
void sha256_compress(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) noexcept;

/// The portable C++ rounds alone, whatever the CPU offers — the reference
/// the SHA-extension and AVX-512F paths are tested against, and the only
/// path off x86.
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
