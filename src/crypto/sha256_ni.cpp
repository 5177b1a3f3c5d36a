// SHA-NI compression function — the x86 SHA extension computes the SHA-256
// round function in hardware (sha256rnds2 retires two rounds per
// instruction). This translation unit is the only one compiled with -msha;
// callers reach it through sha_ni_compress after checking
// sha_ni_available() once, so the binary still runs on CPUs without the
// extension. Output is bit-identical to the portable rounds
// (sha256_compress_portable in sha256.cpp); on a CPU with the extension,
// test_crypto's Sha256Test.ShaNiMatchesPortableRounds compares the two on
// random (state, block) pairs.

#include "crypto/sha256_ni.hpp"

#include "crypto/sha256.hpp"

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

// The canonical SHA-NI schedule. State is carried in the ABEF/CDGH register
// pairing the instruction expects; the message window m[0..3] rotates, step
// j consuming W[4j..4j+3] from m[j % 4].
void sha_ni_compress(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) noexcept {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = reinterpret_cast<const __m128i*>(kSha256RoundConstants);

  // Repack {a..h} into ABEF / CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);               // CDAB
  s1 = _mm_shuffle_epi32(s1, 0x1B);                 // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, s1, 8);     // ABEF
  __m128i state1 = _mm_blend_epi16(s1, tmp, 0xF0);  // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i m[4];
    const auto* in = reinterpret_cast<const __m128i*>(data);
#pragma GCC unroll 4
    for (int w = 0; w < 4; ++w) {
      m[w] = _mm_shuffle_epi8(_mm_loadu_si128(in + w), kShuffle);
    }
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i msg = _mm_add_epi32(m[j & 3], _mm_load_si128(k + j));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (j >= 3 && j < 15) {  // W for step j + 1 (steps 4..15)
        __m128i& next = m[(j + 1) & 3];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(m[j & 3], m[(j - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, m[j & 3]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (j >= 1 && j < 13) {  // first half of W for step j + 3
        m[(j - 1) & 3] = _mm_sha256msg1_epu32(m[(j - 1) & 3], m[j & 3]);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  // Repack ABEF / CDGH back into {a..h}.
  tmp = _mm_shuffle_epi32(state0, 0x1B);  // FEBA
  s1 = _mm_shuffle_epi32(state1, 0xB1);   // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, s1, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(s1, tmp, 8));     // HGFE
}

}  // namespace mvcom::crypto

#else  // non-x86 targets: the portable block function is the only path

namespace mvcom::crypto {

bool sha_ni_available() noexcept { return false; }

void sha_ni_compress(std::uint32_t*, const std::uint8_t*,
                     std::size_t) noexcept {}

}  // namespace mvcom::crypto

#endif
