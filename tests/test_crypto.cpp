// Tests for crypto/sha256 (NIST vectors), crypto/merkle, and crypto/pow.

#include <gtest/gtest.h>

#include <array>
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
#include "crypto/sha256_ni.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::crypto::Digest;
using mvcom::crypto::MerkleTree;
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
  EXPECT_EQ(tree.leaf_count(), 0u);
}

class MerkleProofTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofTest, AllLeavesProveInclusion) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    const auto proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(leaves[i], proof, tree.root()))
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofTest, TamperedLeafFailsVerification) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const MerkleTree tree(leaves);
  const auto proof = tree.prove(0);
  const Digest wrong = Sha256::hash("not-the-leaf");
  EXPECT_FALSE(MerkleTree::verify(wrong, proof, tree.root()));
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
/// enough attempts, and nothing with one fewer. Returns the winner's offset.
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
  const auto found =
      mvcom::crypto::solve(randomness, identity, target, winner + 1, start);
  EXPECT_TRUE(found.has_value()) << "prefix " << randomness.size() << "+"
                                 << identity.size() << ", start " << start;
  if (found) {
    EXPECT_EQ(found->nonce, nonce) << "start " << start;
    EXPECT_EQ(found->digest, scratch_digest(randomness, identity, nonce))
        << "start " << start;
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
  // the 55-byte one-block limit somewhere.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t boundaries[] = {10, 100'000, 10'000'000'000'000'000'000ULL,
                                      0};
  std::size_t crossed = 0;
  for (std::size_t length = 0; length < 64; ++length) {
    const std::string randomness(length, 'r');
    for (const std::uint64_t boundary : boundaries) {
      const std::uint64_t start = boundary == 0 ? kMax - 2 : boundary - 3;
      if (expect_solve_matches_scan(randomness, "n", start, 3) >= 3) {
        ++crossed;
      }
    }
  }
  EXPECT_EQ(crossed, 64 * std::size(boundaries));
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
