#pragma once
// FNV-1a — the one hash the whole repository folds its determinism witnesses
// with. The DES order digest, the per-lane digest merge in the Elastico
// epoch, the x-shard commit/defer ledger digest, the adversary campaign
// decision digest, the checkpoint checksum, the obs event-stream digest, and
// the fabric wire-frame checksum all use the same two constants; this header
// is the single definition (previously each site re-declared them locally).
//
// Three folds are in use and all are part of the pinned contract
// (tests/test_fnv.cpp):
//   * fnv1a_bytes — the textbook byte-at-a-time FNV-1a over a buffer.
//   * fnv1a_u64   — a 64-bit value's 8 bytes, least significant first,
//     through the byte fold: how the campaign decision digest and the obs
//     event digest absorb integers and (via std::bit_cast) doubles.
//   * fnv1a_mix   — the whole-word fold h' = (h ^ v64) * prime used to merge
//     64-bit digests/fields. NOT equivalent to fnv1a_u64; it is its own
//     (stable) variant, and every digest that uses it depends on it staying
//     exactly this.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace mvcom::common {

/// FNV-1a 64-bit offset basis — also the seed value of every digest fold.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
/// FNV-1a 64-bit prime.
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Whole-word fold: absorbs one 64-bit value into the running digest.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h,
                                                std::uint64_t v) noexcept {
  return (h ^ v) * kFnv1aPrime;
}

/// Byte fold: absorbs one byte into the running digest (textbook FNV-1a).
[[nodiscard]] constexpr std::uint64_t fnv1a_byte(std::uint64_t h,
                                                 std::uint8_t b) noexcept {
  return (h ^ b) * kFnv1aPrime;
}

/// Little-endian word fold: absorbs v's 8 bytes, least significant first.
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t h,
                                                std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return h;
}

/// Textbook FNV-1a over a byte buffer, continuing from digest `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(
    std::uint64_t h, std::span<const std::uint8_t> bytes) noexcept {
  for (const std::uint8_t b : bytes) h = fnv1a_byte(h, b);
  return h;
}

/// Textbook FNV-1a over a string's bytes, continuing from digest `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(
    std::uint64_t h, std::string_view bytes) noexcept {
  for (const char c : bytes) h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

/// One-shot textbook FNV-1a of a buffer (seeded with the offset basis).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  return fnv1a_bytes(kFnv1aBasis, bytes);
}
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  return fnv1a_bytes(kFnv1aBasis, bytes);
}

}  // namespace mvcom::common
