// 16-lane SHA-256 rounds on AVX-512F. Lane l of each 512-bit register holds
// lane l's working variable or message word, so one vprord, vpternlogd or
// vpaddd advances 16 hashes. This translation unit is the only one compiled
// with -mavx512f; callers reach it after checking avx512f_available() once,
// so the binary still runs on CPUs without the extension.
//
// Rotates and shifts use the zero-masked intrinsics with an all-ones mask:
// GCC 12's unmasked _mm512_ror_epi32 / _mm512_srli_epi32 merge into
// _mm512_undefined_epi32(), which -Wuninitialized flags under -Werror, and
// the masked forms compile to the same unmasked vprord / vpsrld.
//
// Output is bit-identical to the portable rounds (sha256_compress_portable);
// on an AVX-512F host, test_crypto's Sha256Test.X16MatchesPortableRounds
// compares every lane with them for every precomputed-round count.

#include "crypto/sha256_avx512.hpp"

#include "crypto/sha256.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

namespace mvcom::crypto {

bool avx512f_available() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

namespace {

using V = __m512i;
constexpr __mmask16 kAllLanes = 0xFFFF;

template <int N>
inline __attribute__((always_inline)) V ror(V x) noexcept {
  return _mm512_maskz_ror_epi32(kAllLanes, x, N);
}

template <int N>
inline __attribute__((always_inline)) V shr(V x) noexcept {
  return _mm512_maskz_srli_epi32(kAllLanes, x, N);
}

inline __attribute__((always_inline)) V add(V x, V y) noexcept {
  return _mm512_add_epi32(x, y);
}

inline __attribute__((always_inline)) V splat(std::uint32_t x) noexcept {
  return _mm512_set1_epi32(static_cast<int>(x));
}

// vpternlogd truth tables, indexed by (x << 2) | (y << 1) | z.
constexpr int kXor3 = 0x96;  // x ^ y ^ z
constexpr int kCh = 0xCA;    // x ? y : z
constexpr int kMaj = 0xE8;   // at least two of x, y, z

/// One round on all lanes: t1 = h + Σ1(e) + Ch(e, f, g) + (K[i] + W[i]),
/// d += t1, h = t1 + Σ0(a) + Maj(a, b, c). The caller rotates the roles.
inline __attribute__((always_inline)) void round(V a, V b, V c, V& d, V e,
                                                 V f, V g, V& h,
                                                 V kw) noexcept {
  const V s1 = _mm512_ternarylogic_epi32(ror<6>(e), ror<11>(e), ror<25>(e),
                                         kXor3);
  const V t1 =
      add(add(h, s1), add(_mm512_ternarylogic_epi32(e, f, g, kCh), kw));
  const V s0 = _mm512_ternarylogic_epi32(ror<2>(a), ror<13>(a), ror<22>(a),
                                         kXor3);
  d = add(d, t1);
  h = add(t1, add(s0, _mm512_ternarylogic_epi32(a, b, c, kMaj)));
}

/// Rounds [begin, end) of the first 16, whose count is only known at run
/// time: the roles rotate through moves. `word(i)` yields W[i].
template <typename Word>
inline __attribute__((always_inline)) void rounds_from(
    V (&v)[8], std::size_t begin, std::size_t end, const Word& word) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    round(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7],
          add(splat(kSha256RoundConstants[i]), word(i)));
    const V t = v[7];
    v[7] = v[6];
    v[6] = v[5];
    v[5] = v[4];
    v[4] = v[3];
    v[3] = v[2];
    v[2] = v[1];
    v[1] = v[0];
    v[0] = t;
  }
}

/// Round i >= 16: extends the schedule window w (W[i - 16 .. i - 1], slot
/// j holding W[j mod 16]) by W[i], then runs the round.
inline __attribute__((always_inline)) void scheduled_round(
    V (&w)[16], int i, V a, V b, V c, V& d, V e, V f, V g, V& h) noexcept {
  const V w15 = w[(i + 1) & 15];
  const V w2 = w[(i + 14) & 15];
  const V s0 = _mm512_ternarylogic_epi32(ror<7>(w15), ror<18>(w15),
                                         shr<3>(w15), kXor3);
  const V s1 = _mm512_ternarylogic_epi32(ror<17>(w2), ror<19>(w2),
                                         shr<10>(w2), kXor3);
  V& wi = w[i & 15];
  wi = add(add(wi, s0), add(w[(i + 9) & 15], s1));
  round(a, b, c, d, e, f, g, h, add(splat(kSha256RoundConstants[i]), wi));
}

}  // namespace

void sha256_x16_prefix(Sha256x16Prefix& prefix) noexcept {
  V v[8];
  for (int j = 0; j < 8; ++j) v[j] = splat(prefix.chain[j]);
  rounds_from(v, 0, prefix.rounds,
              [&](std::size_t i) { return splat(prefix.words[i]); });
  for (int j = 0; j < 8; ++j) {
    prefix.vars[j] = static_cast<std::uint32_t>(_mm512_cvtsi512_si32(v[j]));
  }
}

void sha256_x16_compress(const Sha256x16Prefix& prefix,
                         const std::uint32_t (&words)[16][16],
                         std::uint32_t (&state)[8][16]) noexcept {
  const auto lane_words = [&](std::size_t i) {
    return _mm512_loadu_si512(words[i]);
  };
  V w[16];
#pragma GCC unroll 16
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = i < prefix.rounds ? splat(prefix.words[i]) : lane_words(i);
  }
  V v[8];
  for (int j = 0; j < 8; ++j) v[j] = splat(prefix.vars[j]);
  rounds_from(v, prefix.rounds, 16, lane_words);

  V a = v[0], b = v[1], c = v[2], d = v[3];
  V e = v[4], f = v[5], g = v[6], h = v[7];
#pragma GCC unroll 6
  for (int i = 16; i < 64; i += 8) {
    scheduled_round(w, i + 0, a, b, c, d, e, f, g, h);
    scheduled_round(w, i + 1, h, a, b, c, d, e, f, g);
    scheduled_round(w, i + 2, g, h, a, b, c, d, e, f);
    scheduled_round(w, i + 3, f, g, h, a, b, c, d, e);
    scheduled_round(w, i + 4, e, f, g, h, a, b, c, d);
    scheduled_round(w, i + 5, d, e, f, g, h, a, b, c);
    scheduled_round(w, i + 6, c, d, e, f, g, h, a, b);
    scheduled_round(w, i + 7, b, c, d, e, f, g, h, a);
  }

  const V out[8] = {a, b, c, d, e, f, g, h};
  for (int j = 0; j < 8; ++j) {
    _mm512_storeu_si512(state[j], add(out[j], splat(prefix.chain[j])));
  }
}

}  // namespace mvcom::crypto

#else  // non-x86 targets: the PoW grind keeps its scalar loop

namespace mvcom::crypto {

bool avx512f_available() noexcept { return false; }

void sha256_x16_prefix(Sha256x16Prefix&) noexcept {}

void sha256_x16_compress(const Sha256x16Prefix&,
                         const std::uint32_t (&)[16][16],
                         std::uint32_t (&)[8][16]) noexcept {}

}  // namespace mvcom::crypto

#endif
