// Pins the repository-wide FNV-1a contract (common/fnv.hpp).
//
// Every determinism witness in the repo — the DES order digest, the Elastico
// per-lane merge, the x-shard ledger digest, the adversary decision digest,
// the checkpoint checksum, the obs event digest, the fabric frame checksum —
// folds with these exact constants and these exact three folds. The values
// below are therefore NOT free to change: a new constant would silently
// invalidate every recorded digest and every digest the CTests pin.
// The byte-fold vectors are the published FNV-1a test vectors; the mix-fold
// vectors pin this repo's (intentional) whole-word variant.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/fnv.hpp"

namespace {

using mvcom::common::fnv1a;
using mvcom::common::fnv1a_byte;
using mvcom::common::fnv1a_bytes;
using mvcom::common::fnv1a_mix;
using mvcom::common::fnv1a_u64;
using mvcom::common::kFnv1aBasis;
using mvcom::common::kFnv1aPrime;

TEST(Fnv, ConstantsArePinned) {
  EXPECT_EQ(kFnv1aBasis, 0xcbf29ce484222325ULL);
  EXPECT_EQ(kFnv1aPrime, 0x100000001b3ULL);
}

TEST(Fnv, ByteFoldMatchesPublishedVectors) {
  // Landon Curt Noll's official 64-bit FNV-1a test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("b"), 0xaf63df4c8601f1a5ULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv, ByteAndBufferFoldsAgree) {
  const std::array<std::uint8_t, 4> bytes{0x01, 0x02, 0xff, 0x00};
  std::uint64_t h = kFnv1aBasis;
  for (const std::uint8_t b : bytes) h = fnv1a_byte(h, b);
  EXPECT_EQ(h, fnv1a(std::span<const std::uint8_t>(bytes)));
}

TEST(Fnv, StringAndSpanOverloadsAgree) {
  const std::string_view text = "mvcom";
  std::array<std::uint8_t, 5> bytes{};
  for (std::size_t i = 0; i < text.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(text[i]);
  }
  EXPECT_EQ(fnv1a(text), fnv1a(std::span<const std::uint8_t>(bytes)));
}

TEST(Fnv, MixFoldIsPinned) {
  // The whole-word variant used by every digest merge. Pinned by value:
  // these numbers are what all recorded event_order_digest histories and
  // the digests pinned in the CTests were computed with.
  EXPECT_EQ(fnv1a_mix(kFnv1aBasis, 0), 0xaf63bd4c8601b7dfULL);
  EXPECT_EQ(fnv1a_mix(kFnv1aBasis, 0xdeadbeefcafef00dULL),
            0x2d7a0137013accf8ULL);
  EXPECT_EQ(fnv1a_mix(fnv1a_mix(kFnv1aBasis, 1), 2), 0x082f2407b4e8902aULL);
}

TEST(Fnv, WordFoldIsTheLittleEndianByteFold) {
  // fnv1a_u64 feeds v's bytes least significant first. Pinned by value:
  // the campaign decision digests and the obs events digests the CTests
  // pin were computed with it.
  const std::array<std::uint8_t, 8> le{0xef, 0xcd, 0xab, 0x89,
                                       0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(fnv1a_u64(kFnv1aBasis, 0x0123456789abcdefULL),
            fnv1a(std::span<const std::uint8_t>(le)));
  EXPECT_EQ(fnv1a_u64(kFnv1aBasis, 0x0123456789abcdefULL),
            0x37eb3f3347761c55ULL);
  EXPECT_EQ(fnv1a_u64(kFnv1aBasis, 0), 0xa8c7f832281a39c5ULL);
}

TEST(Fnv, MixIsNotTheByteFold) {
  // fnv1a_mix(h, v) absorbs v in ONE multiply; feeding v's 8 bytes through
  // the byte fold (fnv1a_u64) gives a different digest. Both variants are
  // part of the contract — this test documents that they must never be
  // "unified".
  const std::uint64_t v = 0x0123456789abcdefULL;
  EXPECT_NE(fnv1a_mix(kFnv1aBasis, v), fnv1a_u64(kFnv1aBasis, v));
}

TEST(Fnv, MixOrderMatters) {
  EXPECT_NE(fnv1a_mix(fnv1a_mix(kFnv1aBasis, 1), 2),
            fnv1a_mix(fnv1a_mix(kFnv1aBasis, 2), 1));
}

TEST(Fnv, ConstexprUsable) {
  static_assert(fnv1a("mvcom") != 0);
  static_assert(fnv1a_mix(kFnv1aBasis, 42) != kFnv1aBasis);
  SUCCEED();
}

}  // namespace
