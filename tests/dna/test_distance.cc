/**
 * @file
 * Tests for Hamming and Levenshtein distances, including metric axioms
 * and agreement between the banded and exact algorithms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dna/distance.hh"
#include "dna/strand.hh"
#include "util/random.hh"

namespace dnastore
{
namespace
{

TEST(Hamming, KnownCases)
{
    EXPECT_EQ(hammingDistance("", ""), 0u);
    EXPECT_EQ(hammingDistance("ACGT", "ACGT"), 0u);
    EXPECT_EQ(hammingDistance("ACGT", "ACGA"), 1u);
    EXPECT_EQ(hammingDistance("AAAA", "TTTT"), 4u);
}

TEST(Hamming, LengthMismatchThrows)
{
    EXPECT_THROW(hammingDistance("A", "AA"), std::invalid_argument);
}

TEST(Levenshtein, KnownCases)
{
    EXPECT_EQ(levenshtein("", ""), 0u);
    EXPECT_EQ(levenshtein("", "ACG"), 3u);
    EXPECT_EQ(levenshtein("ACG", ""), 3u);
    EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
    EXPECT_EQ(levenshtein("ACGT", "AGT"), 1u);
    EXPECT_EQ(levenshtein("ACGT", "ACGTT"), 1u);
    EXPECT_EQ(levenshtein("ACGT", "TGCA"), 4u);
}

TEST(Levenshtein, SymmetryProperty)
{
    Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        const Strand a = strand::random(rng, rng.below(40));
        const Strand b = strand::random(rng, rng.below(40));
        EXPECT_EQ(levenshtein(a, b), levenshtein(b, a));
    }
}

TEST(Levenshtein, IdentityProperty)
{
    Rng rng(2);
    for (int trial = 0; trial < 100; ++trial) {
        const Strand a = strand::random(rng, rng.below(60));
        EXPECT_EQ(levenshtein(a, a), 0u);
    }
}

TEST(Levenshtein, TriangleInequality)
{
    Rng rng(3);
    for (int trial = 0; trial < 100; ++trial) {
        const Strand a = strand::random(rng, rng.below(25));
        const Strand b = strand::random(rng, rng.below(25));
        const Strand c = strand::random(rng, rng.below(25));
        EXPECT_LE(levenshtein(a, c),
                  levenshtein(a, b) + levenshtein(b, c));
    }
}

TEST(Levenshtein, SingleEditDistancesAreOne)
{
    Rng rng(4);
    for (int trial = 0; trial < 100; ++trial) {
        const Strand a = strand::random(rng, 20 + rng.below(20));
        // Substitution.
        Strand sub = a;
        const std::size_t i = rng.below(a.size());
        sub[i] = sub[i] == 'A' ? 'C' : 'A';
        EXPECT_EQ(levenshtein(a, sub), 1u);
        // Deletion.
        Strand del = a;
        del.erase(rng.below(del.size()), 1);
        EXPECT_EQ(levenshtein(a, del), 1u);
        // Insertion.
        Strand ins = a;
        ins.insert(rng.below(ins.size() + 1), 1, 'G');
        EXPECT_EQ(levenshtein(a, ins), 1u);
    }
}

class BoundedLevenshteinTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BoundedLevenshteinTest, AgreesWithExact)
{
    const std::size_t max_distance = GetParam();
    Rng rng(100 + max_distance);
    for (int trial = 0; trial < 300; ++trial) {
        const Strand a = strand::random(rng, rng.below(50));
        const Strand b = strand::random(rng, rng.below(50));
        const std::size_t exact = levenshtein(a, b);
        const std::size_t banded = boundedLevenshtein(a, b, max_distance);
        if (exact <= max_distance)
            EXPECT_EQ(banded, exact) << a << " vs " << b;
        else
            EXPECT_EQ(banded, max_distance + 1) << a << " vs " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, BoundedLevenshteinTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 40));

TEST(BoundedLevenshtein, NearbyStringsFoundCheaply)
{
    Rng rng(5);
    const Strand a = strand::random(rng, 200);
    Strand b = a;
    b[50] = b[50] == 'A' ? 'C' : 'A';
    b.erase(120, 1);
    EXPECT_EQ(boundedLevenshtein(a, b, 5), 2u);
}

TEST(WithinEditDistance, MatchesBoundedResult)
{
    EXPECT_TRUE(withinEditDistance("ACGT", "ACGA", 1));
    EXPECT_FALSE(withinEditDistance("ACGT", "TGCA", 3));
    EXPECT_TRUE(withinEditDistance("ACGT", "TGCA", 4));
}

class MyersLengthTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MyersLengthTest, AgreesWithReferenceDp)
{
    const std::size_t len = GetParam();
    Rng rng(9000 + len);
    for (int trial = 0; trial < 60; ++trial) {
        const Strand a = strand::random(rng, rng.below(len + 1));
        const Strand b = strand::random(rng, rng.below(len + 1));
        EXPECT_EQ(myersLevenshtein(a, b), levenshtein(a, b))
            << "a=" << a << " b=" << b;
    }
}

// Lengths straddling the 64-bit block boundaries of the bit-parallel
// kernel (1 block, exactly 1 block, 2 blocks, 3+ blocks).
INSTANTIATE_TEST_SUITE_P(BlockBoundaries, MyersLengthTest,
                         ::testing::Values(1, 8, 63, 64, 65, 127, 128,
                                           129, 200, 300));

TEST(MyersLevenshtein, EdgeCases)
{
    EXPECT_EQ(myersLevenshtein("", ""), 0u);
    EXPECT_EQ(myersLevenshtein("", "ACGT"), 4u);
    EXPECT_EQ(myersLevenshtein("ACGT", ""), 4u);
    EXPECT_EQ(myersLevenshtein("kitten", "sitting"), 3u);
    const Strand s(200, 'A');
    EXPECT_EQ(myersLevenshtein(s, s), 0u);
    EXPECT_EQ(myersLevenshtein(s, Strand(200, 'T')), 200u);
}

TEST(MyersLevenshtein, NearbyLongStrings)
{
    Rng rng(10);
    const Strand a = strand::random(rng, 500);
    Strand b = a;
    b[100] = b[100] == 'A' ? 'C' : 'A';
    b.erase(300, 2);
    b.insert(400, "GT");
    EXPECT_EQ(myersLevenshtein(a, b), levenshtein(a, b));
}

/** Copy of s with about rate * |s| random edits drawn from alphabet. */
std::string
mutate(const std::string &s, double rate, const std::string &alphabet,
       Rng &rng)
{
    std::string out;
    for (const char c : s) {
        const double r = rng.uniform();
        const char other = alphabet[rng.below(alphabet.size())];
        if (r < rate / 3)
            continue; // deletion
        if (r < 2 * rate / 3) {
            out += other; // substitution
            continue;
        }
        out += c;
        if (r < rate)
            out += other; // insertion
    }
    return out;
}

std::string
randomOver(const std::string &alphabet, std::size_t len, Rng &rng)
{
    std::string s(len, ' ');
    for (char &c : s)
        c = alphabet[rng.below(alphabet.size())];
    return s;
}

class EditKernelSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(EditKernelSweep, WithinEditDistanceMatchesReferenceDp)
{
    // Around every 64-bit block boundary, over ACGT, bytes that are not
    // bases, and more than four distinct symbols: every threshold from
    // 0 to one past the shorter length must agree with the plain DP.
    const std::size_t len = GetParam();
    std::string every_byte(256, ' ');
    for (std::size_t c = 0; c < every_byte.size(); ++c)
        every_byte[c] = static_cast<char>(c);
    const std::string alphabets[] = {"ACGT", "ACGTN-acgt", every_byte};
    Rng rng(7100 + len);
    for (const std::string &alphabet : alphabets) {
        const std::string a = randomOver(alphabet, len, rng);
        const std::string pairs[][2] = {
            {a, mutate(a, 0.06, alphabet, rng)},
            {a, mutate(a, 0.25, alphabet, rng)},
            {a, randomOver(alphabet, len, rng)},
            {a, randomOver(alphabet, len + 1 + rng.below(9), rng)},
            {a, a},
        };
        for (const auto &[x, y] : pairs) {
            const std::size_t exact = levenshtein(x, y);
            ASSERT_EQ(myersLevenshtein(x, y), exact);
            const std::size_t m = std::min(x.size(), y.size());
            for (std::size_t k = 0; k <= m + 1; ++k) {
                ASSERT_EQ(withinEditDistance(x, y, k), exact <= k)
                    << "len " << len << " k " << k << " exact " << exact;
                ASSERT_EQ(withinEditDistance(y, x, k), exact <= k);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, EditKernelSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           131, 132, 133, 255, 256, 257));

/** Copy of s with `count` symbols from alphabet inserted at random. */
std::string
insertRandom(std::string s, std::size_t count, const std::string &alphabet,
             Rng &rng)
{
    for (std::size_t i = 0; i < count; ++i)
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng.below(s.size() + 1)),
                 alphabet[rng.below(alphabet.size())]);
    return s;
}

/** Copy of s with `count` random positions set to another symbol. */
std::string
substituteRandom(std::string s, std::size_t count,
                 const std::string &alphabet, Rng &rng)
{
    for (std::size_t i = 0; i < count; ++i) {
        char &c = s[rng.below(s.size())];
        const char old = c;
        while (c == old)
            c = alphabet[rng.below(alphabet.size())];
    }
    return s;
}

TEST(WithinEditDistance, DispatchEdges)
{
    // k = 31 is the widest band that fits one word; k = 32 takes the
    // blocked kernel.  For each, pairs at exact distance k and k + 1,
    // with a length gap of exactly k and with equal lengths, must give
    // the plain DP's answer at thresholds k - 1, k and k + 1.
    std::string every_byte(256, ' ');
    for (std::size_t c = 0; c < every_byte.size(); ++c)
        every_byte[c] = static_cast<char>(c);
    const std::string alphabets[] = {"ACGT", every_byte};
    Rng rng(7300);
    for (const std::string &alphabet : alphabets) {
        for (const std::size_t len : {132u, 300u}) {
            for (const std::size_t k : {30u, 31u, 32u}) {
                const std::string a = randomOver(alphabet, len, rng);
                std::vector<std::string> found;
                for (const std::size_t gap : {k, std::size_t{0}}) {
                    for (const std::size_t target : {k, k + 1}) {
                        // Draw until the edits cost exactly target.
                        for (int trial = 0; trial < 1000; ++trial) {
                            const std::string b = substituteRandom(
                                insertRandom(a, gap, alphabet, rng),
                                target - gap, alphabet, rng);
                            if (levenshtein(a, b) == target) {
                                found.push_back(b);
                                break;
                            }
                        }
                    }
                }
                ASSERT_EQ(found.size(), 4u) << "len " << len << " k " << k;
                for (const std::string &b : found) {
                    const std::size_t exact = levenshtein(a, b);
                    for (const std::size_t t : {k - 1, k, k + 1}) {
                        EXPECT_EQ(withinEditDistance(a, b, t), exact <= t)
                            << "len " << len << " k " << k << " t " << t
                            << " exact " << exact << " gap "
                            << b.size() - a.size();
                        EXPECT_EQ(withinEditDistance(b, a, t), exact <= t);
                    }
                }
            }
        }
    }
}

TEST(WithinEditDistance, EmptyAndHugeThresholds)
{
    EXPECT_TRUE(withinEditDistance("", "", 0));
    EXPECT_FALSE(withinEditDistance("", "ACGTACGTACGT", 11));
    EXPECT_TRUE(withinEditDistance("", "ACGTACGTACGT", 12));
    const std::string s(300, 'A');
    const std::string t(300, 'T');
    EXPECT_TRUE(withinEditDistance(s, t, SIZE_MAX));
    EXPECT_FALSE(withinEditDistance(s, t, 299));
    EXPECT_TRUE(withinEditDistance(s, t, 300));
}

TEST(BoundedLevenshtein, LengthGapShortCircuits)
{
    // Distance is at least the length difference.
    EXPECT_EQ(boundedLevenshtein("A", "AAAAAAAA", 3), 4u);
}

} // namespace
} // namespace dnastore
