// Unit and statistical tests for common/rng — determinism, bounds,
// unbiasedness, and distribution moments. Every stochastic result in the
// repository rests on this engine, so the moments are checked tightly.

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <vector>

namespace {

using mvcom::common::Rng;
using mvcom::common::SplitMix64;

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent2(7);
  parent2.fork();
  std::vector<std::uint64_t> child_seq;
  Rng child2 = Rng(7).fork();
  for (int i = 0; i < 100; ++i) child_seq.push_back(child2());
  // Deterministic: forking from the same root gives the same child.
  Rng child3 = Rng(7).fork();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child3(), child_seq[static_cast<std::size_t>(i)]);
  }
  // And different from the parent's own continued stream.
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) any_diff |= (parent2() != child());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, StreamIsOrderIndependent) {
  // stream(seed, i) must depend only on (seed, i) — never on how many draws
  // any other stream has made. This is the property fork() lacks and the
  // reason overlapped epochs derive their engines through stream().
  std::vector<std::uint64_t> forward;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Rng r = Rng::stream(99, i);
    forward.push_back(r());
  }
  for (std::uint64_t i = 8; i-- > 0;) {
    Rng r = Rng::stream(99, i);  // derive in reverse order
    EXPECT_EQ(r(), forward[i]);
  }
  // Interleaved draws from two streams match two independent replays.
  Rng a = Rng::stream(99, 2);
  Rng b = Rng::stream(99, 5);
  std::vector<std::uint64_t> mixed_a;
  std::vector<std::uint64_t> mixed_b;
  for (int i = 0; i < 50; ++i) {
    mixed_a.push_back(a());
    mixed_b.push_back(b());
    mixed_b.push_back(b());
  }
  Rng a2 = Rng::stream(99, 2);
  Rng b2 = Rng::stream(99, 5);
  for (const std::uint64_t v : mixed_a) ASSERT_EQ(a2(), v);
  for (const std::uint64_t v : mixed_b) ASSERT_EQ(b2(), v);
}

TEST(RngTest, StreamIndicesDoNotAlias) {
  // Distinct (seed, index) pairs in a realistic window must give distinct
  // engines — 4 streams per epoch over thousands of epochs.
  std::set<std::uint64_t> first_draws;
  constexpr std::uint64_t kStreams = 4 * 4096;
  for (std::uint64_t i = 0; i < kStreams; ++i) {
    Rng r = Rng::stream(0xfeedULL, i);
    first_draws.insert(r());
  }
  EXPECT_EQ(first_draws.size(), kStreams);
  // Different seeds under the same index diverge too.
  EXPECT_NE(Rng::stream(1, 0)(), Rng::stream(2, 0)());
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(5);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 33)}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.below(n), n);
    }
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(13);
  constexpr std::uint64_t kBuckets = 7;
  std::array<int, kBuckets> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / static_cast<double>(kBuckets),
                0.05 * n / static_cast<double>(kBuckets));
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(19);
  const double mean = 600.0;  // the paper's PoW solve expectation
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / n, mean, 0.01 * mean);
}

TEST(RngTest, ExponentialIsNonNegative) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.exponential(1.0), 0.0);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(29);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, LognormalTargetsRequestedMoments) {
  Rng rng(31);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_mean_sd(54.5, 20.0);
    ASSERT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(mean, 54.5, 0.5);
  EXPECT_NEAR(sd, 20.0, 0.6);
}

TEST(RngTest, PoissonMeanMatchesSmallAndLargeLambda) {
  Rng rng(37);
  for (const double lambda : {0.5, 5.0, 30.0, 500.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(lambda));
    }
    EXPECT_NEAR(sum / n, lambda, std::max(0.05, 0.02 * lambda))
        << "lambda=" << lambda;
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(53);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(ZipfSamplerTest, MatchesAnalyticPmf) {
  // P(rank = k) = (k+1)^{-s} / H_{n,s}; the hot head is where the account
  // model's contention comes from, so the head probabilities are checked
  // tightly.
  const std::size_t n = 100;
  const double s = 1.1;
  const mvcom::common::ZipfSampler zipf(n, s);
  EXPECT_EQ(zipf.size(), n);
  EXPECT_DOUBLE_EQ(zipf.skew(), s);
  double harmonic = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    harmonic += 1.0 / std::pow(static_cast<double>(k), s);
  }
  Rng rng(71);
  std::vector<int> counts(n, 0);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) {
    const std::uint32_t k = zipf(rng);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  for (std::size_t k = 0; k < 5; ++k) {
    const double expect = 1.0 / std::pow(static_cast<double>(k + 1), s) /
                          harmonic;
    EXPECT_NEAR(static_cast<double>(counts[k]) / draws, expect, 0.15 * expect)
        << "rank " << k;
  }
  // Head dominance: rank 0 beats every deep-tail rank.
  EXPECT_GT(counts[0], counts[n - 1]);
}

TEST(ZipfSamplerTest, ZeroSkewIsUniform) {
  const std::size_t n = 16;
  const mvcom::common::ZipfSampler zipf(n, 0.0);
  Rng rng(73);
  std::vector<int> counts(n, 0);
  const int draws = 160000;
  for (int i = 0; i < draws; ++i) ++counts[zipf(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / static_cast<double>(n),
                0.05 * draws / static_cast<double>(n));
  }
}

// Property sweep: the exponential distribution's memorylessness is what
// justifies both the PoW latency model and the Gillespie dwell times of the
// Eq.-(7) chain (analysis/markov.cpp); check the conditional-mean property
// over several means.
class ExponentialMemorylessTest : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMemorylessTest, ConditionalTailMeanEqualsMean) {
  const double mean = GetParam();
  Rng rng(59);
  const double threshold = mean;  // condition on X > mean
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < 600000; ++i) {
    const double x = rng.exponential(mean);
    if (x > threshold) {
      sum += x - threshold;
      ++count;
    }
  }
  ASSERT_GT(count, 1000);
  EXPECT_NEAR(sum / count, mean, 0.05 * mean);
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMemorylessTest,
                         ::testing::Values(1.0, 54.5, 600.0));

TEST(RngTest, BatchedCallSiteSubstreamsDoNotAlias) {
  // Call sites that draw a run of variates per substream (the serve
  // pipeline's per-epoch PBFT verification delays and formation-latency
  // samples) must not share one stream index across logically distinct
  // substreams: distinct stream indices must produce distinct exponential()
  // runs even under identical seeds and lengths.
  const auto draws = [](Rng rng) {
    std::vector<double> out(64);
    for (double& v : out) v = rng.exponential(1.0);
    return out;
  };
  const std::vector<double> va = draws(Rng::stream(1234, 7));
  const std::vector<double> vb = draws(Rng::stream(1234, 8));
  std::size_t equal = 0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(va[i]) ==
        std::bit_cast<std::uint64_t>(vb[i])) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0u);
  // And the same stream re-derived is bitwise reproducible.
  const std::vector<double> va2 = draws(Rng::stream(1234, 7));
  for (std::size_t i = 0; i < va.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(va[i]),
              std::bit_cast<std::uint64_t>(va2[i]));
  }
}

}  // namespace
