/**
 * @file
 * Differential tests: ReedSolomon's table-driven encoder and syndromes
 * against the polynomial-division reference (ecc/rs_reference.hh).
 * Every codeword and every syndrome must match byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ecc/reed_solomon.hh"
#include "ecc/rs_reference.hh"
#include "util/random.hh"

namespace dnastore
{
namespace
{

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t count)
{
    std::vector<std::uint8_t> bytes(count);
    for (auto &b : bytes)
        b = static_cast<std::uint8_t>(rng.below(256));
    return bytes;
}

/**
 * Encode @p message with both encoders and compare; then compare the
 * syndromes of the codeword, of the codeword with a few symbol errors
 * and of a random word.
 */
void
checkAgainstReference(const ReedSolomon &rs,
                      const std::vector<std::uint8_t> &message, Rng &rng)
{
    const std::size_t n = rs.n();
    const std::size_t k = rs.k();
    const auto codeword = rs.encode(message);
    ASSERT_EQ(codeword, rs_reference::encode(n, k, message))
        << "RS(" << n << "," << k << ")";

    std::vector<std::vector<std::uint8_t>> words = {codeword};
    auto damaged = codeword;
    for (const std::size_t pos :
         rng.sampleIndices(n, std::min<std::size_t>(n, 3)))
        damaged[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    words.push_back(damaged);
    words.push_back(randomBytes(rng, n));
    for (const auto &word : words) {
        ASSERT_EQ(rs.syndromes(word), rs_reference::syndromes(n, k, word))
            << "RS(" << n << "," << k << ")";
    }
    const auto zero = rs.syndromes(codeword);
    EXPECT_TRUE(std::all_of(zero.begin(), zero.end(),
                            [](std::uint8_t s) { return s == 0; }));
}

struct Geometry
{
    std::size_t n;
    std::size_t k;
};

/** Printed into the ctest name in place of the raw parameter bytes. */
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << "RS(" << g.n << "," << g.k << ")";
}

class RsDifferentialTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(RsDifferentialTest, AllZeroMessage)
{
    const ReedSolomon rs(GetParam().n, GetParam().k);
    Rng rng(1);
    checkAgainstReference(rs, std::vector<std::uint8_t>(rs.k(), 0x00), rng);
}

TEST_P(RsDifferentialTest, AllOnesMessage)
{
    const ReedSolomon rs(GetParam().n, GetParam().k);
    Rng rng(2);
    checkAgainstReference(rs, std::vector<std::uint8_t>(rs.k(), 0xff), rng);
}

TEST_P(RsDifferentialTest, RandomMessages)
{
    const ReedSolomon rs(GetParam().n, GetParam().k);
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial)
        checkAgainstReference(rs, randomBytes(rng, rs.k()), rng);
}

// The smallest code, Table III's, the archive's, and both extremes of
// the rate at the largest length.
INSTANTIATE_TEST_SUITE_P(
    Geometries, RsDifferentialTest,
    ::testing::Values(Geometry{2, 1}, Geometry{60, 40}, Geometry{96, 64},
                      Geometry{255, 1}, Geometry{255, 254}),
    [](const ::testing::TestParamInfo<Geometry> &p) {
        return "n" + std::to_string(p.param.n) + "_k" +
               std::to_string(p.param.k);
    });

TEST(RsDifferential, SeededGeometrySweep)
{
    Rng rng(20);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 2 + rng.below(254);
        const std::size_t k = 1 + rng.below(n - 1);
        const ReedSolomon rs(n, k);
        for (int message = 0; message < 3; ++message)
            checkAgainstReference(rs, randomBytes(rng, k), rng);
    }
}

} // namespace
} // namespace dnastore
