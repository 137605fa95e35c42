/**
 * @file
 * Tests for the random q-gram probe set.
 */

#include <gtest/gtest.h>

#include <set>

#include "dna/qgram.hh"

namespace dnastore
{
namespace
{

TEST(RandomQGramSet, ProducesDistinctGramsOfRightLength)
{
    Rng rng(1);
    const auto set = randomQGramSet(rng, 4, 50);
    EXPECT_EQ(set.size(), 50u);
    std::set<std::string> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), 50u);
    for (const auto &gram : set)
        EXPECT_EQ(gram.size(), 4u);
}

TEST(RandomQGramSet, FullAlphabetCoverage)
{
    Rng rng(2);
    // Request every possible 2-gram: must terminate and return all 16.
    const auto set = randomQGramSet(rng, 2, 16);
    std::set<std::string> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), 16u);
}

TEST(RandomQGramSet, RejectsImpossibleRequests)
{
    Rng rng(3);
    EXPECT_THROW(randomQGramSet(rng, 2, 17), std::invalid_argument);
    EXPECT_THROW(randomQGramSet(rng, 0, 1), std::invalid_argument);
}

} // namespace
} // namespace dnastore
