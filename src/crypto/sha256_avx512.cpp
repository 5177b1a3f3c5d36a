// 16-lane SHA-256 grind on AVX-512F. Lane l of each 512-bit register holds
// lane l's working variable or message word, so one vprord, vpternlogd or
// vpaddd advances 16 hashes. This translation unit is the only one compiled
// with -mavx512f; callers reach it after checking avx512f_available() once,
// so the binary still runs on CPUs without the extension.
//
// Rotates, shifts and andnot use the zero-masked intrinsics with an
// all-ones mask: GCC 12's unmasked _mm512_ror_epi32 / _mm512_srli_epi32 /
// _mm512_srlv_epi32 / _mm512_andnot_si512 merge into
// _mm512_undefined_epi32(), which -Wuninitialized flags under -Werror, and
// the masked forms compile to the same unmasked instructions.
//
// Output is bit-identical to the portable rounds (sha256_compress_portable);
// on an AVX-512F host, test_crypto's Sha256Test.X16MatchesPortableRounds
// compares every lane's state with them at every digit offset 0–54.

#include "crypto/sha256_avx512.hpp"

#include "crypto/sha256.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

#include <algorithm>

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

template <int N>
inline __attribute__((always_inline)) V shl(V x) noexcept {
  return _mm512_maskz_slli_epi32(kAllLanes, x, N);
}

/// Shifts lane l by n[l] bits.
inline __attribute__((always_inline)) V shr_by(V x, V n) noexcept {
  return _mm512_maskz_srlv_epi32(kAllLanes, x, n);
}

inline __attribute__((always_inline)) V shl_by(V x, V n) noexcept {
  return _mm512_maskz_sllv_epi32(kAllLanes, x, n);
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

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// The 16 lanes of a grind: lane l's message word i is rows[i][l], the
/// big-endian value of its block bytes 4i..4i+3. Block byte p is therefore
/// row p / 4, bits 8·(3 − p % 4) up. The lanes hold consecutive nonces, so
/// their widths differ by one digit at most.
struct Lanes {
  V rows[16];
  V ones_at;          // per lane: block byte of the ones digit
  int narrow = 0;     // the lowest of them
  int wide = 0;       // the highest: narrow or narrow + 1
  int digits_at = 0;  // block byte of every lane's leading digit
};

/// The lanes in `grown` carried past their leading digit. All of them are
/// narrow (a wide lane is 9·10^k short of its next power of ten): their
/// digits and 0x80 byte move on one byte, `lead` becomes the leading digit,
/// and the bit length in rows 14–15 grows by 8.
void regrow(Lanes& lanes, __mmask16 grown, V lead) noexcept {
  const int top = lanes.digits_at / 4;
  // Rows after the leading digit's take the previous row's last byte, down
  // to the new 0x80 byte's (which the caller keeps below byte 56).
  for (int r = (lanes.narrow + 2) / 4; r > top; --r) {
    const V moved = _mm512_or_si512(shr<8>(lanes.rows[r]),
                                    shl<24>(lanes.rows[r - 1]));
    lanes.rows[r] = _mm512_mask_mov_epi32(lanes.rows[r], grown, moved);
  }
  // The leading digit's row keeps its prefix bytes, takes `lead` at
  // digits_at, and its bytes after that move on one.
  const int prefix_bits = 8 * (lanes.digits_at % 4);
  const std::uint32_t keep =
      prefix_bits == 0 ? 0 : ~std::uint32_t{0} << (32 - prefix_bits);
  const V lead_shift = splat(static_cast<std::uint32_t>(24 - prefix_bits));
  V& row = lanes.rows[top];
  const V moved =
      _mm512_ternarylogic_epi32(splat(keep), row, shr<8>(row), kCh);
  const V led = _mm512_ternarylogic_epi32(
      shl_by(splat(0xFF), lead_shift),
      shl_by(add(lead, splat('0')), lead_shift), moved, kCh);
  row = _mm512_mask_mov_epi32(row, grown, led);
  // Bit length + 8, its low word carrying into the high one.
  const V bits = add(lanes.rows[15], splat(8));
  const __mmask16 wrapped =
      _mm512_mask_cmplt_epu32_mask(grown, bits, splat(8));
  lanes.rows[14] = _mm512_mask_add_epi32(lanes.rows[14], wrapped,
                                         lanes.rows[14], splat(1));
  lanes.rows[15] = _mm512_mask_mov_epi32(lanes.rows[15], grown, bits);
  const __mmask16 narrow =
      _mm512_cmpeq_epi32_mask(
          lanes.ones_at, splat(static_cast<std::uint32_t>(lanes.narrow)));
  lanes.ones_at =
      _mm512_mask_add_epi32(lanes.ones_at, grown, lanes.ones_at, splat(1));
  lanes.wide = lanes.narrow + 1;
  if (narrow == grown) lanes.narrow = lanes.wide;  // every narrow lane grew
}

/// Adds 10·tens[l] + ones[l] (digits 0–9) to lane l's decimal nonce in its
/// rows, one digit position j at a time from the ones up while a carry is
/// left. Digit j of a lane is block byte ones_at − j. Lanes differ in width
/// by one digit at most, so digit j of every lane lies in one row or two
/// adjacent ones: a blend of the two rows, a per-lane shift to the digit, an
/// add and a carry compare, and a masked write back. A carry is 0 or 1; a
/// lane whose addend runs past its leading digit grows one (regrow).
void add_decimal(Lanes& lanes, V tens, V ones) noexcept {
  const V first = splat(static_cast<std::uint32_t>(lanes.digits_at));
  V addend = ones;
  V lead = _mm512_setzero_si512();
  __mmask16 grown = 0;
  for (int j = 0;; ++j) {
    const V at =
        _mm512_sub_epi32(lanes.ones_at, splat(static_cast<std::uint32_t>(j)));
    __mmask16 live = kAllLanes;  // every lane has a ones digit
    if (j > 0) {
      live = _mm512_cmpge_epi32_mask(at, first);
      const __mmask16 past = _mm512_mask_test_epi32_mask(
          static_cast<__mmask16>(~live), addend, addend);
      if (past != 0) {
        grown |= past;
        lead = _mm512_mask_mov_epi32(lead, past, addend);
      }
    }
    __mmask16 carry = 0;
    if (live != 0) {
      const int low = std::max(lanes.narrow - j, lanes.digits_at) / 4;
      const int high = (lanes.wide - j) / 4;
      __mmask16 in_high = 0;
      V row = lanes.rows[low];
      if (high != low) {
        in_high = _mm512_cmpge_epi32_mask(
            at, splat(static_cast<std::uint32_t>(4 * high)));
        row = _mm512_mask_mov_epi32(row, in_high, lanes.rows[high]);
      }
      // 8·(3 − p % 4) for digit byte p.
      const V shift =
          shl<3>(_mm512_maskz_andnot_epi32(kAllLanes, at, splat(3)));
      V digit = add(_mm512_and_si512(shr_by(row, shift), splat(0xFF)), addend);
      carry = _mm512_mask_cmpgt_epu32_mask(live, digit, splat('9'));
      digit = _mm512_mask_sub_epi32(digit, carry, digit, splat(10));
      row = _mm512_ternarylogic_epi32(shl_by(splat(0xFF), shift),
                                      shl_by(digit, shift), row, kCh);
      lanes.rows[low] = _mm512_mask_mov_epi32(
          lanes.rows[low], static_cast<__mmask16>(live & ~in_high), row);
      if (in_high != 0) {
        lanes.rows[high] =
            _mm512_mask_mov_epi32(lanes.rows[high], in_high, row);
      }
    }
    if (j > 0 && carry == 0) break;
    addend = j == 0 ? _mm512_mask_add_epi32(tens, carry, tens, splat(1))
                    : _mm512_maskz_mov_epi32(carry, splat(1));
  }
  if (grown != 0) regrow(lanes, grown, lead);
}

/// One pass: every lane's rounds from `rounds` on, from the shared working
/// variables `vars` after the rounds before it; `out` gets a..h before the
/// chaining state is added.
inline __attribute__((always_inline)) void compress(
    const V (&rows)[16], std::size_t rounds, const V (&vars)[8],
    V (&out)[8]) noexcept {
  V w[16];
#pragma GCC unroll 16
  for (std::size_t i = 0; i < 16; ++i) w[i] = rows[i];
  V v[8];
  for (int j = 0; j < 8; ++j) v[j] = vars[j];
  rounds_from(v, rounds, 16, [&](std::size_t i) { return rows[i]; });

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
  out[0] = a;
  out[1] = b;
  out[2] = c;
  out[3] = d;
  out[4] = e;
  out[5] = f;
  out[6] = g;
  out[7] = h;
}

}  // namespace

std::uint64_t sha256_x16_grind(const Sha256x16Grind& grind,
                               std::uint64_t groups,
                               std::uint32_t (&state)[8]) noexcept {
  Lanes lanes;
  for (std::size_t i = 0; i < 16; ++i) {
    lanes.rows[i] = splat(load_be32(grind.block + 4 * i));
  }
  lanes.digits_at = static_cast<int>(grind.digits_at);
  lanes.narrow = lanes.wide =
      static_cast<int>(grind.digits_at + grind.width) - 1;
  lanes.ones_at = splat(static_cast<std::uint32_t>(lanes.narrow));
  // The block's words below digits_at / 4 hold prefix bytes alone, the same
  // in every lane, so the rounds they feed run once, here.
  const std::size_t rounds = grind.digits_at / 4;
  V vars[8];
  for (int j = 0; j < 8; ++j) vars[j] = splat(grind.chain[j]);
  rounds_from(vars, 0, rounds, [&](std::size_t i) { return lanes.rows[i]; });
  // Lane l starts at n + l.
  add_decimal(lanes,
              _mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1),
              _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5));

  const V target_high = splat(static_cast<std::uint32_t>(grind.target >> 32));
  const V target_low = splat(static_cast<std::uint32_t>(grind.target));
  for (std::uint64_t group = 0; group < groups; ++group) {
    V out[8];
    compress(lanes.rows, rounds, vars, out);
    // State words 0–1 are the digest's leading 64 bits, compared with the
    // target as one unsigned 64-bit number. Lanes run in nonce order, so the
    // lowest winning lane is the first qualifying nonce.
    const V high = add(out[0], splat(grind.chain[0]));
    const V low = add(out[1], splat(grind.chain[1]));
    const __mmask16 wins =
        _mm512_cmplt_epu32_mask(high, target_high) |
        _mm512_mask_cmplt_epu32_mask(
            _mm512_cmpeq_epi32_mask(high, target_high), low, target_low);
    if (wins != 0) {
      const int lane = __builtin_ctz(wins);
      alignas(64) std::uint32_t words[16];
      for (int j = 0; j < 8; ++j) {
        _mm512_store_si512(words, add(out[j], splat(grind.chain[j])));
        state[j] = words[lane];
      }
      return 16 * group + static_cast<std::uint64_t>(lane);
    }
    if (group + 1 < groups) add_decimal(lanes, splat(1), splat(6));
  }
  return 16 * groups;
}

}  // namespace mvcom::crypto

#else  // non-x86 targets: the PoW grind keeps its scalar loop

namespace mvcom::crypto {

bool avx512f_available() noexcept { return false; }

std::uint64_t sha256_x16_grind(const Sha256x16Grind&, std::uint64_t groups,
                               std::uint32_t (&)[8]) noexcept {
  return 16 * groups;
}

}  // namespace mvcom::crypto

#endif
