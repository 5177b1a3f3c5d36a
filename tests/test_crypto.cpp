// Tests for crypto/sha256 (NIST vectors), crypto/merkle, and crypto/pow.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_avx512.hpp"
#include "crypto/sha256_ni.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::crypto::Digest;
using mvcom::crypto::MerkleTree;
using mvcom::crypto::PowPrefix;
using mvcom::crypto::PowTarget;
using mvcom::crypto::Sha256;
using mvcom::crypto::to_hex;

// --- SHA-256 (FIPS 180-4 test vectors) -------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(to_hex(h.finalize()), to_hex(Sha256::hash("hello world")));
}

TEST(Sha256Test, ExactBlockBoundary) {
  const std::string msg(64, 'x');
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(to_hex(h.finalize()), to_hex(Sha256::hash(msg)));
  const std::string msg55(55, 'y');
  const std::string msg56(56, 'y');
  EXPECT_NE(to_hex(Sha256::hash(msg55)), to_hex(Sha256::hash(msg56)));
}

TEST(Sha256Test, DoubleHashDiffersFromSingle) {
  EXPECT_NE(to_hex(Sha256::double_hash("abc")), to_hex(Sha256::hash("abc")));
}

TEST(Sha256Test, Leading64IsBigEndianPrefix) {
  Digest d{};
  d[0] = 0x01;
  d[7] = 0xff;
  EXPECT_EQ(mvcom::crypto::leading64(d), 0x01000000000000ffULL);
}

TEST(Sha256Test, LeadingZeroBits) {
  Digest d{};
  d[0] = 0x00;
  d[1] = 0x10;  // 3 leading zero bits within this byte
  EXPECT_EQ(mvcom::crypto::leading_zero_bits(d), 11);
  Digest all_zero{};
  EXPECT_EQ(mvcom::crypto::leading_zero_bits(all_zero), 256);
}

TEST(Sha256Test, PortableRoundsHashAPaddedBlock) {
  // "abc" padded by hand into one block, through the portable rounds alone:
  // pins the fallback path on a host whose CPU has the SHA extension.
  std::array<std::uint8_t, 64> block{};
  std::memcpy(block.data(), "abc", 3);
  block[3] = 0x80;
  block[63] = 24;  // message length in bits
  std::array<std::uint32_t, 8> state = mvcom::crypto::kSha256Init;
  mvcom::crypto::sha256_compress_portable(state.data(), block.data(), 1);
  EXPECT_EQ(to_hex(mvcom::crypto::digest_of(state.data())),
            to_hex(Sha256::hash("abc")));
}

TEST(Sha256Test, ShaNiMatchesPortableRounds) {
  // The two compression paths on random chaining states and blocks — the
  // SHA-NI host otherwise never runs the portable rounds, and a host
  // without the extension never runs sha_ni_compress.
  if (!mvcom::crypto::sha_ni_available()) {
    GTEST_SKIP() << "CPU has no SHA extension";
  }
  Rng rng(0x5a17);
  std::array<std::uint8_t, 128> data{};
  for (int trial = 0; trial < 10'000; ++trial) {
    std::array<std::uint32_t, 8> state{};
    for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng());
    for (std::uint8_t& byte : data) byte = static_cast<std::uint8_t>(rng());
    const std::size_t blocks = 1 + static_cast<std::size_t>(trial % 2);
    std::array<std::uint32_t, 8> portable = state;
    std::array<std::uint32_t, 8> ni = state;
    mvcom::crypto::sha256_compress_portable(portable.data(), data.data(),
                                            blocks);
    mvcom::crypto::sha_ni_compress(ni.data(), data.data(), blocks);
    ASSERT_EQ(portable, ni) << "trial " << trial << ", " << blocks
                            << " block(s)";
  }
}

/// A nonce's one-block tail as the PoW grind lays it out: `prefix`, the
/// nonce's decimal digits, 0x80, zeros, and the bit length of a message of
/// `before` whole-block bytes, the prefix and the digits.
std::array<std::uint8_t, 64> tail_block(const std::vector<std::uint8_t>& prefix,
                                        std::uint64_t nonce,
                                        std::uint64_t before) {
  std::array<std::uint8_t, 64> block{};
  std::copy(prefix.begin(), prefix.end(), block.begin());
  const std::string digits = std::to_string(nonce);
  std::copy(digits.begin(), digits.end(), block.begin() + prefix.size());
  block[prefix.size() + digits.size()] = 0x80;
  const std::uint64_t bits = (before + prefix.size() + digits.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  return block;
}

TEST(Sha256Test, X16MatchesPortableRounds) {
  // The 16-lane grind on random chaining states and prefix bytes, with the
  // digits at every block offset 0–54 (so 0–13 rounds run once for all
  // lanes), from starts whose lanes or steps of 16 cross a power of ten,
  // carry through nines, or push the bit length's low word past 2^32. Under
  // a target just above attempt k's leading 64 bits, the grind must return
  // the first attempt below it, with that attempt's portable-rounds state,
  // and under target 0 none.
  if (!mvcom::crypto::avx512f_available()) {
    GTEST_SKIP() << "CPU has no AVX-512F";
  }
  Rng rng(0x516);
  const auto word = [&rng] { return static_cast<std::uint32_t>(rng()); };
  constexpr std::uint64_t kStarts[] = {0,  1,   5,    84,   94,  990,
                                       999'984, 1'999'990, 12'345,
                                       99'999'999'999'999'990ULL};
  for (std::size_t digits_at = 0; digits_at <= 54; ++digits_at) {
    for (const std::uint64_t start : kStarts) {
      const std::uint64_t groups = 1 + rng() % 3;
      const std::uint64_t attempts = 16 * groups;
      if (digits_at + std::to_string(start + attempts - 1).size() > 55) {
        continue;  // the grind takes one-block nonces only
      }
      mvcom::crypto::Sha256x16Grind grind{};
      for (std::uint32_t& w : grind.chain) w = word();
      std::vector<std::uint8_t> prefix(digits_at);
      for (std::uint8_t& byte : prefix) byte = static_cast<std::uint8_t>(rng());
      // Every third case sits its bit length 8 short of 2^32 per digit.
      const std::uint64_t before =
          start % 3 == 0 ? (std::uint64_t{1} << 29) - digits_at -
                               std::to_string(start).size() - 1
                         : 64 * (rng() % 4);
      const auto first = tail_block(prefix, start, before);
      std::copy(first.begin(), first.end(), grind.block);
      grind.digits_at = digits_at;
      grind.width = std::to_string(start).size();

      std::vector<std::array<std::uint32_t, 8>> states(attempts);
      for (std::uint64_t k = 0; k < attempts; ++k) {
        std::copy(std::begin(grind.chain), std::end(grind.chain),
                  states[k].begin());
        const auto block = tail_block(prefix, start + k, before);
        mvcom::crypto::sha256_compress_portable(states[k].data(),
                                                block.data(), 1);
      }
      const auto lead = [&](std::uint64_t k) {
        return (std::uint64_t{states[k][0]} << 32) | states[k][1];
      };
      for (int pick = 0; pick < 4; ++pick) {
        const std::uint64_t k = rng() % attempts;
        grind.target = lead(k) + 1;
        std::uint64_t expected = 0;
        while (lead(expected) >= grind.target) ++expected;
        std::uint32_t state[8] = {};
        ASSERT_EQ(mvcom::crypto::sha256_x16_grind(grind, groups, state),
                  expected)
            << "digits at " << digits_at << ", start " << start;
        for (std::size_t j = 0; j < 8; ++j) {
          ASSERT_EQ(state[j], states[expected][j])
              << "digits at " << digits_at << ", start " << start
              << ", attempt " << expected << ", word " << j;
        }
      }
      grind.target = 0;
      std::uint32_t state[8] = {};
      ASSERT_EQ(mvcom::crypto::sha256_x16_grind(grind, groups, state),
                attempts);
    }
  }
}

// --- Merkle tree ------------------------------------------------------------

std::vector<Digest> make_leaves(std::size_t n) {
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::hash("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  const auto leaves = make_leaves(1);
  const MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
}

TEST(MerkleTest, RootIsDeterministic) {
  const MerkleTree a(make_leaves(7));
  const MerkleTree b(make_leaves(7));
  EXPECT_EQ(a.root(), b.root());
}

TEST(MerkleTest, RootDependsOnEveryLeaf) {
  auto leaves = make_leaves(8);
  const MerkleTree original(leaves);
  leaves[5] = Sha256::hash("tampered");
  const MerkleTree tampered(leaves);
  EXPECT_NE(original.root(), tampered.root());
}

TEST(MerkleTest, EmptyTreeHasConventionRoot) {
  const MerkleTree tree({});
  EXPECT_EQ(tree.root(), Sha256::hash(std::string_view{}));
}

/// SHA256(left || right), hashed from the concatenated bytes.
Digest hash_pair(const Digest& left, const Digest& right) {
  std::vector<std::uint8_t> bytes(left.begin(), left.end());
  bytes.insert(bytes.end(), right.begin(), right.end());
  return Sha256::hash(std::span<const std::uint8_t>(bytes));
}

/// Every level of the tree by the Bitcoin rule, one fresh vector per level
/// (leaves first, root last): an odd level duplicates its last entry, then
/// neighbours pair up.
std::vector<std::vector<Digest>> levels_of(std::vector<Digest> leaves) {
  std::vector<std::vector<Digest>> levels{std::move(leaves)};
  while (levels.back().size() > 1) {
    std::vector<Digest> level = levels.back();
    if (level.size() % 2 == 1) level.push_back(level.back());
    std::vector<Digest> above;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      above.push_back(hash_pair(level[i], level[i + 1]));
    }
    levels.push_back(std::move(above));
  }
  return levels;
}

/// Hashes `leaf` up the path of leaf `index`, taking each sibling from
/// `levels`: the inclusion proof a light client checks against a root.
Digest fold_inclusion_path(Digest leaf, std::size_t index,
                           const std::vector<std::vector<Digest>>& levels) {
  for (std::size_t l = 0; l + 1 < levels.size(); ++l, index /= 2) {
    const std::vector<Digest>& nodes = levels[l];
    if (index % 2 == 1) {
      leaf = hash_pair(nodes[index - 1], leaf);
    } else {
      const std::size_t sibling = index + 1 < nodes.size() ? index + 1 : index;
      leaf = hash_pair(leaf, nodes[sibling]);
    }
  }
  return leaf;
}

// MerkleTree keeps only its root. These tests hold that root to the
// level-by-level recomputation above, and to an inclusion proof of every
// leaf built from the recomputed levels.
class MerkleProofTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofTest, AllLeavesProveInclusion) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const Digest root = MerkleTree(leaves).root();
  const auto levels = levels_of(leaves);
  EXPECT_EQ(root, levels.back().front());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(fold_inclusion_path(leaves[i], i, levels), root)
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofTest, TamperedLeafFailsVerification) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const Digest root = MerkleTree(leaves).root();
  const auto levels = levels_of(leaves);
  const Digest wrong = Sha256::hash("not-the-leaf");
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NE(fold_inclusion_path(wrong, i, levels), root)
        << "leaf " << i << " of " << n;
    auto tampered = leaves;
    tampered[i] = wrong;
    EXPECT_NE(MerkleTree(tampered).root(), root) << "leaf " << i << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(LeafCounts, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 64));

// --- Proof of Work ----------------------------------------------------------

TEST(PowTest, SolveAndVerifyRoundtrip) {
  const PowTarget target = PowTarget::from_difficulty_bits(10);
  const auto solution =
      mvcom::crypto::solve("epoch-rand", "node-1", target, 1u << 16);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(mvcom::crypto::verify("epoch-rand", "node-1", target, *solution));
}

TEST(PowTest, VerifyRejectsWrongIdentity) {
  const PowTarget target = PowTarget::from_difficulty_bits(8);
  const auto solution =
      mvcom::crypto::solve("epoch-rand", "node-1", target, 1u << 16);
  ASSERT_TRUE(solution.has_value());
  EXPECT_FALSE(
      mvcom::crypto::verify("epoch-rand", "node-2", target, *solution));
}

TEST(PowTest, HarderTargetNeedsMoreAttempts) {
  EXPECT_GT(PowTarget::from_difficulty_bits(16).expected_attempts(),
            PowTarget::from_difficulty_bits(8).expected_attempts());
  EXPECT_NEAR(PowTarget::from_difficulty_bits(8).expected_attempts(), 256.0,
              1.0);
}

TEST(PowTest, UnsolvableTargetGivesUp) {
  // leading64_below = 1 is ~2^-64 per attempt; 100 tries will fail.
  const PowTarget target{1};
  EXPECT_FALSE(mvcom::crypto::solve("r", "id", target, 100).has_value());
}

TEST(PowTest, MidstateMatchesFullPreimageHash) {
  // PowMidstate::digest and the one-shot pow_digest must be bit-identical
  // to hashing the documented preimage from scratch: for the smallest and
  // largest nonce of every width 1–20, over prefix tails of every length
  // (randomness of 0–69 bytes), in one- and two-block paddings.
  std::vector<std::uint64_t> nonces = {123456789, 0xffffffffULL, 0, 9};
  std::uint64_t lowest = 10;
  for (int width = 2; width <= 20; ++width, lowest *= 10) {
    nonces.push_back(lowest);
    nonces.push_back(width == 20 ? std::numeric_limits<std::uint64_t>::max()
                                 : lowest * 10 - 1);
  }
  for (std::size_t length = 0; length < 70; ++length) {
    const std::string randomness(length, 'm');
    const mvcom::crypto::PowMidstate midstate(randomness, "node-7");
    for (const std::uint64_t nonce : nonces) {
      const Digest naive =
          Sha256::hash(randomness + "|node-7|" + std::to_string(nonce));
      ASSERT_EQ(midstate.digest(nonce), naive)
          << "randomness " << length << " B, nonce " << nonce;
      ASSERT_EQ(mvcom::crypto::pow_digest(randomness, "node-7", nonce), naive)
          << "randomness " << length << " B, nonce " << nonce;
    }
  }
}

TEST(PowTest, MidstateSolveAgreesWithVerifier) {
  // solve() grinds through the midstate; whatever it finds must pass the
  // from-scratch verifier, and the winning nonce must be the first one.
  const PowTarget target = PowTarget::from_difficulty_bits(10);
  const auto solution = mvcom::crypto::solve("epoch-rand", "node-3", target,
                                             1u << 16);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(mvcom::crypto::verify("epoch-rand", "node-3", target, *solution));
  for (std::uint64_t nonce = 0; nonce < solution->nonce; ++nonce) {
    EXPECT_GE(mvcom::crypto::leading64(
                  mvcom::crypto::pow_digest("epoch-rand", "node-3", nonce)),
              target.leading64_below);
  }
}

// --- The epoch prefix of Elastico's stage 1 --------------------------------

/// The committee widths the prefix's committee call is checked at: 1 bit,
/// Elastico's 3 to 16, and a whole word.
constexpr int kCommitteeBits[] = {1, 3, 7, 16, 32};

TEST(PowTest, PrefixMatchesPowDigestForEveryNodeOfAnEpoch) {
  // Stage 1 takes every node identity's committee from one PowPrefix over
  // the epoch's 64-character randomness. For each identity of a 3,072-node
  // epoch, its digest must equal pow_digest and a one-shot hash of the
  // whole preimage, bitwise, and its committee committee_of(pow_digest).
  const std::string randomness = to_hex(Sha256::hash("genesis"));
  ASSERT_EQ(randomness.size(), 64u);
  const PowPrefix prefix(randomness);
  for (std::uint64_t node = 0; node < 3072; ++node) {
    const std::string identity = "node-" + std::to_string(node);
    const std::uint64_t nonce = node * 0x9e3779b97f4a7c15ULL;
    const Digest reference =
        mvcom::crypto::pow_digest(randomness, identity, nonce);
    ASSERT_EQ(prefix.digest(identity, nonce), reference) << identity;
    ASSERT_EQ(reference, Sha256::hash(randomness + "|" + identity + "|" +
                                      std::to_string(nonce)))
        << identity;
    for (const int bits : kCommitteeBits) {
      ASSERT_EQ(prefix.committee(identity, nonce, bits),
                mvcom::crypto::committee_of(reference, bits))
          << identity << ", " << bits << " bits";
    }
  }
}

TEST(PowTest, PrefixMatchesPowDigestAcrossBlockBoundaries) {
  // Randomness lengths that put `randomness|` just short of, at, and past
  // the 64-byte block boundary (and two blocks in), with identities that
  // keep the rest in one block or push it into a second.
  const std::vector<std::string> identities = {"", "node-0", "node-3071",
                                               std::string(60, 'i')};
  const std::vector<std::uint64_t> nonces = {
      0, 9, 10, 123456789, std::numeric_limits<std::uint64_t>::max()};
  for (const std::size_t length : {0u, 1u, 55u, 63u, 64u, 65u, 128u}) {
    std::string randomness(length, ' ');
    for (std::size_t i = 0; i < length; ++i) {
      randomness[i] = "0123456789abcdef"[(i * 7) % 16];
    }
    const PowPrefix prefix(randomness);
    for (const std::string& identity : identities) {
      for (const std::uint64_t nonce : nonces) {
        SCOPED_TRACE("randomness " + std::to_string(length) + " B, identity " +
                     std::to_string(identity.size()) + " B, nonce " +
                     std::to_string(nonce));
        const Digest reference =
            mvcom::crypto::pow_digest(randomness, identity, nonce);
        ASSERT_EQ(prefix.digest(identity, nonce), reference);
        ASSERT_EQ(reference, Sha256::hash(randomness + "|" + identity + "|" +
                                          std::to_string(nonce)));
        for (const int bits : kCommitteeBits) {
          ASSERT_EQ(prefix.committee(identity, nonce, bits),
                    mvcom::crypto::committee_of(reference, bits))
              << bits << " bits";
        }
      }
    }
  }
}

// --- The fixed-block grind kernel against from-scratch hashing ---------------

/// The preimage's digest hashed from scratch, one Sha256 over the string.
Digest scratch_digest(const std::string& randomness,
                      const std::string& identity, std::uint64_t nonce) {
  return Sha256::hash(randomness + "|" + identity + "|" +
                      std::to_string(nonce));
}

/// Scans start, start + 1, … (wrapping like solve) from scratch and picks a
/// target under which the first winner sits at least `min_offset` attempts
/// in: the first nonce there whose leading 64 bits are a new low over the
/// scan. Checks that solve() finds exactly that nonce and digest with just
/// enough attempts, and with a whole window to spare (so a 16-lane group
/// holding later winners too must pick it), and nothing with one fewer.
/// Returns the winner's offset.
std::uint64_t expect_solve_matches_scan(const std::string& randomness,
                                        const std::string& identity,
                                        std::uint64_t start,
                                        std::uint64_t min_offset) {
  constexpr std::uint64_t kWindow = 1 << 14;
  // Without a new low past min_offset, the window's overall low wins.
  std::uint64_t low = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t winner = 0;  // offset of the chosen nonce
  for (std::uint64_t offset = 0; offset < kWindow; ++offset) {
    const std::uint64_t lead =
        mvcom::crypto::leading64(scratch_digest(randomness, identity,
                                                start + offset));
    if (lead >= low) continue;
    low = lead;
    winner = offset;
    if (offset >= min_offset) break;
  }
  const PowTarget target{low + 1};
  const std::uint64_t nonce = start + winner;
  for (const std::uint64_t budget : {winner + 1, kWindow}) {
    const auto found =
        mvcom::crypto::solve(randomness, identity, target, budget, start);
    EXPECT_TRUE(found.has_value()) << "prefix " << randomness.size() << "+"
                                   << identity.size() << ", start " << start;
    if (found) {
      EXPECT_EQ(found->nonce, nonce)
          << "start " << start << ", budget " << budget;
      EXPECT_EQ(found->digest, scratch_digest(randomness, identity, nonce))
          << "start " << start << ", budget " << budget;
    }
  }
  EXPECT_FALSE(mvcom::crypto::solve(randomness, identity, target, winner,
                                    start)
                   .has_value())
      << "start " << start;
  return winner;
}

TEST(PowKernelTest, SolveMatchesScratchScanForEveryPrefixLength) {
  // Randomness of 0–130 bytes puts the prefix tail at every length 0–63,
  // in one- and two-block paddings. Starting at nonce 0 and winning at 10
  // or later also crosses the 9 -> 10 digit gain.
  std::size_t crossed = 0;
  for (std::size_t length = 0; length <= 130; ++length) {
    const std::string randomness(length, static_cast<char>('a' + length % 26));
    if (expect_solve_matches_scan(randomness, "committee-7", 0, 10) >= 10) {
      ++crossed;
    }
  }
  EXPECT_GE(crossed, 125u);
}

TEST(PowKernelTest, SolveCrossesDigitBoundariesInPlace) {
  // solve() increments the decimal nonce in place and re-pads when it gains
  // a digit or wraps to 0. Each start sits 3 attempts before a boundary,
  // and every prefix tail length puts the re-padded tail on both sides of
  // the 55-byte one-block limit somewhere. Winners 3 attempts in stay in
  // the two-at-a-time loop; winners 16–40 or more attempts in reach the
  // 16-lane groups, whose lanes straddle the boundary (or follow the
  // wrap), and the budgets `winner` and `winner + 1` end mid-group.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t boundaries[] = {10, 100, 100'000,
                                      10'000'000'000'000'000'000ULL, 0};
  const std::uint64_t min_offsets[] = {3, 16, 29, 40};
  std::size_t reached = 0;
  for (std::size_t length = 0; length < 64; ++length) {
    const std::string randomness(length, 'r');
    for (const std::uint64_t boundary : boundaries) {
      const std::uint64_t start = boundary == 0 ? kMax - 2 : boundary - 3;
      for (const std::uint64_t min_offset : min_offsets) {
        if (expect_solve_matches_scan(randomness, "n", start, min_offset) >=
            min_offset) {
          ++reached;
        }
      }
    }
  }
  // A case misses its offset only when no new low follows it within the
  // scan window (odds min_offset / 2^14): then the window's low wins.
  EXPECT_GE(reached, 64 * std::size(boundaries) * std::size(min_offsets) - 8);
}

/// Randomness that puts the prefix "<randomness>|n|" tail at `tail` bytes.
std::string randomness_for_tail(std::size_t tail) {
  return std::string(tail >= 3 ? tail - 3 : tail + 61, 'q');
}

/// Leading 64 bits of the from-scratch digests of nonces start, start + 1,
/// … (`count` of them) for identity "n".
std::vector<std::uint64_t> scratch_leads(const std::string& randomness,
                                         std::uint64_t start,
                                         std::size_t count) {
  std::vector<std::uint64_t> leads(count);
  for (std::size_t k = 0; k < count; ++k) {
    leads[k] =
        mvcom::crypto::leading64(scratch_digest(randomness, "n", start + k));
  }
  return leads;
}

/// solve() from `start` under `target` must return the first nonce whose
/// scratch lead is below it, with its scratch digest, within the scanned
/// attempts. Returns that nonce's offset.
std::size_t expect_first_below(const std::string& randomness,
                               std::uint64_t start,
                               const std::vector<std::uint64_t>& leads,
                               std::uint64_t target) {
  std::size_t first = 0;
  while (first < leads.size() && leads[first] >= target) ++first;
  const auto found = mvcom::crypto::solve(randomness, "n", PowTarget{target},
                                          leads.size(), start);
  if (first == leads.size()) {
    EXPECT_FALSE(found.has_value()) << "tail " << randomness.size() + 3
                                    << ", start " << start;
    return first;
  }
  EXPECT_TRUE(found.has_value()) << "tail " << (randomness.size() + 3) % 64
                                 << ", start " << start;
  if (found) {
    EXPECT_EQ(found->nonce, start + first)
        << "tail " << (randomness.size() + 3) % 64 << ", start " << start
        << ", target " << target;
    EXPECT_EQ(found->digest, scratch_digest(randomness, "n", start + first));
  }
  return first;
}

TEST(PowKernelTest, StepsCarryThroughNinesAtEveryTailLength) {
  // Starts whose steps of 16 carry through 0–6 nines, with and without a
  // digit gain (84 -> 100 ... 99,999,984 -> 100,000,000; 184 -> 200 ...),
  // at every prefix tail length 0–54, so the ones digit sits at all four
  // byte offsets of a row and the carries cross rows. Under a target just
  // above each of 48 attempts' leads, solve() must return the first below
  // it; some of those winners sit after a step.
  std::size_t stepped = 0;
  for (std::size_t tail = 0; tail <= 54; ++tail) {
    const std::string randomness = randomness_for_tail(tail);
    for (std::uint64_t power = 100; power <= 100'000'000; power *= 10) {
      for (const std::uint64_t start : {power - 16, 2 * power - 16}) {
        const auto leads = scratch_leads(randomness, start, 48);
        for (const std::uint64_t lead : leads) {
          if (expect_first_below(randomness, start, leads, lead + 1) >= 16) {
            ++stepped;
          }
        }
      }
    }
  }
  EXPECT_GE(stepped, 55u * 14u);
}

TEST(PowKernelTest, GroupsStraddlePowersOfTenAtEveryLaneOffset) {
  // A group whose lanes hold two widths, from its first pass (start
  // 10^k − offset) and after a step (start 10^k − 16 − offset), for every
  // lane offset 1–15 of the first wide lane, at every tail length.
  std::size_t checked = 0;
  for (std::size_t tail = 0; tail <= 54; ++tail) {
    const std::string randomness = randomness_for_tail(tail);
    for (std::uint64_t power = 10; power <= 100'000; power *= 10) {
      for (std::uint64_t offset = 1; offset < 16; ++offset) {
        for (const std::uint64_t back : {offset, 16 + offset}) {
          if (back > power) continue;
          const std::uint64_t start = power - back;
          const auto leads = scratch_leads(randomness, start, 48);
          std::uint64_t low = std::numeric_limits<std::uint64_t>::max();
          for (const std::uint64_t lead : leads) {
            if (lead >= low) continue;  // only new lows win where they sit
            low = lead;
            expect_first_below(randomness, start, leads, lead + 1);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 55u * 5u * 15u * 2u);
}

TEST(PowKernelTest, SolvePicksTheFirstOfTwoWinningLanes) {
  // A target just above the second-lowest lead of one group lets two of
  // its lanes win; when no earlier group holds a winner, solve() must
  // return the lower lane.
  Rng rng(0x2ace);
  std::size_t two_winners = 0;
  for (std::size_t tail = 0; tail <= 54; ++tail) {
    const std::string randomness = randomness_for_tail(tail);
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint64_t start = rng() % 100'000;
      const auto leads = scratch_leads(randomness, start, 48);
      for (std::ptrdiff_t group = 0; group < 3; ++group) {
        std::vector<std::uint64_t> lanes(leads.begin() + 16 * group,
                                         leads.begin() + 16 * (group + 1));
        std::sort(lanes.begin(), lanes.end());
        const std::uint64_t target = lanes[1] + 1;
        const std::size_t first =
            expect_first_below(randomness, start, leads, target);
        if (first >= static_cast<std::size_t>(16 * group)) ++two_winners;
      }
    }
  }
  EXPECT_GE(two_winners, 55u * 6u);
}

TEST(PowTest, DifficultyOutsideZeroTo63BitsThrows) {
  EXPECT_THROW((void)PowTarget::from_difficulty_bits(-1),
               std::invalid_argument);
  EXPECT_THROW((void)PowTarget::from_difficulty_bits(64),
               std::invalid_argument);
  EXPECT_EQ(PowTarget::from_difficulty_bits(0).leading64_below,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(PowTarget::from_difficulty_bits(63).leading64_below, 1u);
}

TEST(PowTest, CommitteeAssignmentStaysInRange) {
  for (int bits : {1, 2, 4, 8}) {
    for (int i = 0; i < 200; ++i) {
      const Digest d = Sha256::hash("x" + std::to_string(i));
      EXPECT_LT(mvcom::crypto::committee_of(d, bits), 1u << bits);
    }
  }
}

TEST(PowTest, CommitteeOfThirtyTwoBitsIsTheDigestsLastWord) {
  // The mask of a full-word committee is all ones, not a shift by 32.
  const Digest d = Sha256::hash("z");
  const std::uint32_t last = (std::uint32_t{d[28]} << 24) |
                             (std::uint32_t{d[29]} << 16) |
                             (std::uint32_t{d[30]} << 8) | d[31];
  EXPECT_EQ(mvcom::crypto::committee_of(d, 32), last);
  EXPECT_EQ(mvcom::crypto::committee_of(d, 31), last & 0x7fffffffu);
}

TEST(PowTest, CommitteeAssignmentCoversAllCommittees) {
  std::vector<int> seen(1 << 3, 0);
  for (int i = 0; i < 2000; ++i) {
    const Digest d = Sha256::hash("y" + std::to_string(i));
    ++seen[mvcom::crypto::committee_of(d, 3)];
  }
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(PowTest, ModelSolveLatencyMeanMatchesPaper) {
  // The paper's committee-formation model: Exp with mean 600 s.
  Rng rng(61);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += mvcom::crypto::model_solve_latency(rng, SimTime(600.0), 1.0)
               .seconds();
  }
  EXPECT_NEAR(sum / n, 600.0, 10.0);
}

TEST(PowTest, FasterNodesSolveSooner) {
  Rng rng(67);
  double slow = 0.0;
  double fast = 0.0;
  for (int i = 0; i < 20000; ++i) {
    slow += mvcom::crypto::model_solve_latency(rng, SimTime(600.0), 0.5)
                .seconds();
    fast += mvcom::crypto::model_solve_latency(rng, SimTime(600.0), 2.0)
                .seconds();
  }
  EXPECT_GT(slow, 3.0 * fast);  // 4x rate ratio, wide margin
}

}  // namespace
