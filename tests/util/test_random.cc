/**
 * @file
 * Tests for the deterministic PRNG and its distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "util/random.hh"

namespace dnastore
{
namespace
{

TEST(SplitMix64, IsDeterministic)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(1);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 500; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(4);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(7);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(8);
    for (double lambda : {0.5, 3.0, 10.0, 50.0}) {
        double sum = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.poisson(lambda));
        EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.05)
            << "lambda=" << lambda;
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(9);
    const double p = 0.25;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricCertainSuccessIsZero)
{
    Rng rng(10);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricSaturatesForTinyP)
{
    // log(u) / log1p(-1e-300) is about 1e300 failures: far past 2^64.
    Rng rng(12);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1e-300), UINT64_MAX);
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LogNormalIsPositive)
{
    Rng rng(12);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.logNormal(0.0, 0.5), 0.0);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights = {0.0, 1.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexZeroTotalThrows)
{
    Rng rng(14);
    std::vector<double> weights = {0.0, 0.0};
    EXPECT_THROW(rng.weightedIndex(weights), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctAndInRange)
{
    Rng rng(15);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.below(100);
        const std::size_t k = rng.below(n + 1);
        const auto sample = rng.sampleIndices(n, k);
        EXPECT_EQ(sample.size(), k);
        std::set<std::size_t> distinct(sample.begin(), sample.end());
        EXPECT_EQ(distinct.size(), k);
        for (std::size_t idx : sample)
            EXPECT_LT(idx, n);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(16);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[static_cast<std::size_t>(i)] = i;
    auto shuffled = v;
    rng.shuffle(shuffled);
    EXPECT_NE(shuffled, v); // astronomically unlikely to be identity
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(17);
    Rng child = a.split();
    // The child stream should differ from the parent's continuation.
    bool any_diff = false;
    for (int i = 0; i < 8; ++i)
        any_diff |= a.next() != child.next();
    EXPECT_TRUE(any_diff);
}

} // namespace
} // namespace dnastore
