// SHA-NI compression function — the x86 SHA extension computes the SHA-256
// round function in hardware (sha256rnds2 retires two rounds per
// instruction). This translation unit is the only one compiled with -msha;
// callers reach it through sha_ni_compress / sha_ni_compress_x2 after
// checking sha_ni_available() once, so the binary still runs on CPUs
// without the extension. Output is
// bit-identical to the portable rounds (sha256_compress_portable in
// sha256.cpp); on a CPU with the extension, test_crypto's
// Sha256Test.ShaNiMatchesPortableRounds compares the two on random
// (state, block) pairs.

#include "crypto/sha256_ni.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

namespace mvcom::crypto {

bool sha_ni_available() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("sha") != 0;
#else
  return false;
#endif
}

namespace {

alignas(16) constexpr std::uint32_t kRound[64] = {
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

// The canonical SHA-NI schedule for L independent streams. sha256rnds2 is
// bound by latency, so interleaving the streams' four-round steps lets one
// stream's rounds issue while the other's wait. State is carried in the
// ABEF/CDGH register pairing the instruction expects; the message window
// m[0..3] rotates, step j consuming W[4j..4j+3] from m[j % 4].
template <std::size_t L>
inline __attribute__((always_inline)) void compress_lanes(
    std::uint32_t* const (&state)[L], const std::uint8_t* const (&data)[L],
    std::size_t blocks) noexcept {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = reinterpret_cast<const __m128i*>(kRound);

  __m128i state0[L], state1[L];
  const std::uint8_t* block[L];
#pragma GCC unroll 2
  for (std::size_t l = 0; l < L; ++l) {
    // Repack {a..h} into ABEF / CDGH.
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state[l]));
    __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state[l] + 4));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
    s1 = _mm_shuffle_epi32(s1, 0x1B);                  // EFGH
    state0[l] = _mm_alignr_epi8(tmp, s1, 8);           // ABEF
    state1[l] = _mm_blend_epi16(s1, tmp, 0xF0);        // CDGH
    block[l] = data[l];
  }

  for (; blocks > 0; --blocks) {
    __m128i abef_save[L], cdgh_save[L], m[L][4];
#pragma GCC unroll 2
    for (std::size_t l = 0; l < L; ++l) {
      abef_save[l] = state0[l];
      cdgh_save[l] = state1[l];
      const auto* in = reinterpret_cast<const __m128i*>(block[l]);
#pragma GCC unroll 4
      for (int w = 0; w < 4; ++w) {
        m[l][w] = _mm_shuffle_epi8(_mm_loadu_si128(in + w), kShuffle);
      }
      block[l] += 64;
    }
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i msg[L];
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l) {
        msg[l] = _mm_add_epi32(m[l][j & 3], _mm_load_si128(k + j));
        state1[l] = _mm_sha256rnds2_epu32(state1[l], state0[l], msg[l]);
      }
      if (j >= 3 && j < 15) {  // W for step j + 1 (steps 4..15)
#pragma GCC unroll 2
        for (std::size_t l = 0; l < L; ++l) {
          __m128i& next = m[l][(j + 1) & 3];
          next = _mm_add_epi32(
              next, _mm_alignr_epi8(m[l][j & 3], m[l][(j - 1) & 3], 4));
          next = _mm_sha256msg2_epu32(next, m[l][j & 3]);
        }
      }
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l) {
        msg[l] = _mm_shuffle_epi32(msg[l], 0x0E);
        state0[l] = _mm_sha256rnds2_epu32(state0[l], state1[l], msg[l]);
      }
      if (j >= 1 && j < 13) {  // first half of W for step j + 3
#pragma GCC unroll 2
        for (std::size_t l = 0; l < L; ++l) {
          m[l][(j - 1) & 3] =
              _mm_sha256msg1_epu32(m[l][(j - 1) & 3], m[l][j & 3]);
        }
      }
    }
#pragma GCC unroll 2
    for (std::size_t l = 0; l < L; ++l) {
      state0[l] = _mm_add_epi32(state0[l], abef_save[l]);
      state1[l] = _mm_add_epi32(state1[l], cdgh_save[l]);
    }
  }

#pragma GCC unroll 2
  for (std::size_t l = 0; l < L; ++l) {
    // Repack ABEF / CDGH back into {a..h}.
    const __m128i tmp = _mm_shuffle_epi32(state0[l], 0x1B);   // FEBA
    const __m128i s1 = _mm_shuffle_epi32(state1[l], 0xB1);    // DCHG
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[l]),
                     _mm_blend_epi16(tmp, s1, 0xF0));          // DCBA
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[l] + 4),
                     _mm_alignr_epi8(s1, tmp, 8));             // HGFE
  }
}

}  // namespace

void sha_ni_compress(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) noexcept {
  compress_lanes<1>({state}, {data}, blocks);
}

void sha_ni_compress_x2(std::uint32_t* state_a, const std::uint8_t* data_a,
                        std::uint32_t* state_b, const std::uint8_t* data_b,
                        std::size_t blocks) noexcept {
  compress_lanes<2>({state_a, state_b}, {data_a, data_b}, blocks);
}

}  // namespace mvcom::crypto

#else  // non-x86 targets: the portable block function is the only path

namespace mvcom::crypto {

bool sha_ni_available() noexcept { return false; }

void sha_ni_compress(std::uint32_t*, const std::uint8_t*,
                     std::size_t) noexcept {}

void sha_ni_compress_x2(std::uint32_t*, const std::uint8_t*, std::uint32_t*,
                        const std::uint8_t*, std::size_t) noexcept {}

}  // namespace mvcom::crypto

#endif
