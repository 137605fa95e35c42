/**
 * @file
 * Tests for q-gram and w-gram read signatures.
 */

#include <gtest/gtest.h>

#include "clustering/signature.hh"
#include "simulator/iid_channel.hh"

namespace dnastore
{
namespace
{

TEST(SignatureScheme, QGramBitsMatchPresence)
{
    SignatureScheme scheme(SignatureKind::QGram, {"AC", "GG", "TT"});
    const auto sig = scheme.compute("ACGTAC");
    ASSERT_EQ(sig.values.size(), 3u);
    EXPECT_EQ(sig.values[0], 1);  // AC present
    EXPECT_EQ(sig.values[1], 0);  // GG absent
    EXPECT_EQ(sig.values[2], 0);  // TT absent
}

TEST(SignatureScheme, WGramRecordsFirstPositions)
{
    SignatureScheme scheme(SignatureKind::WGram, {"AC", "GT", "CC"});
    const auto sig = scheme.compute("ACGTAC");
    ASSERT_EQ(sig.values.size(), 3u);
    EXPECT_EQ(sig.values[0], 0);
    EXPECT_EQ(sig.values[1], 2);
    EXPECT_EQ(sig.values[2], -1); // absent
}

TEST(SignatureScheme, QGramDistanceIsHamming)
{
    SignatureScheme scheme(SignatureKind::QGram, {"AA", "CC", "GG", "TT"});
    const auto a = scheme.compute("AACC"); // {1,1,0,0}
    const auto b = scheme.compute("AAGG"); // {1,0,1,0}
    EXPECT_EQ(scheme.distance(a, b), 2);
    EXPECT_EQ(scheme.distance(a, a), 0);
}

TEST(SignatureScheme, WGramDistanceIsL1)
{
    SignatureScheme scheme(SignatureKind::WGram, {"AC"});
    const auto a = scheme.compute("ACGT");   // pos 0
    const auto b = scheme.compute("GGACGT"); // pos 2
    const auto c = scheme.compute("GGGG");   // absent (-1)
    EXPECT_EQ(scheme.distance(a, b), 2);
    EXPECT_EQ(scheme.distance(a, c), 1);
    EXPECT_EQ(scheme.distance(c, c), 0);
}

TEST(SignatureScheme, DimensionMismatchThrows)
{
    SignatureScheme s1(SignatureKind::QGram, {"AC"});
    SignatureScheme s2(SignatureKind::QGram, {"AC", "GT"});
    const auto a = s1.compute("ACGT");
    const auto b = s2.compute("ACGT");
    EXPECT_THROW(s1.distance(a, b), std::invalid_argument);
}

TEST(SignatureScheme, EmptyProbeSetThrows)
{
    EXPECT_THROW(SignatureScheme(SignatureKind::QGram,
                                 std::vector<std::string>{}),
                 std::invalid_argument);
}

TEST(SignatureScheme, InvalidProbeSetsThrow)
{
    using Probes = std::vector<std::string>;
    for (const Probes &probes : {
             Probes{"AC", "GTA"},      // mixed lengths
             Probes{"AC", "Gt"},       // lower case
             Probes{"AC", "GN"},       // not a base
             Probes{"AC", "GT", "AC"}, // duplicate
             Probes{""},               // q = 0
             Probes{"ACGTACGTA"},      // q above kMaxQ
         }) {
        for (SignatureKind kind : {SignatureKind::QGram, SignatureKind::WGram})
            EXPECT_THROW(SignatureScheme(kind, probes), std::invalid_argument)
                << probes.back();
    }
    EXPECT_NO_THROW(SignatureScheme(SignatureKind::QGram, {"ACGTACGT"}));
    EXPECT_NO_THROW(SignatureScheme(SignatureKind::QGram, {"A", "C"}));
}

TEST(SignatureScheme, NonBaseBytesMatchNoProbe)
{
    // Lower case and N never equal an upper-case probe byte, so a gram
    // that spans one is absent; the grams either side still count.
    SignatureScheme wgram(SignatureKind::WGram, {"ACG", "CGT", "GTT", "TTA"});
    EXPECT_EQ(wgram.compute("ACGtTACGT").values,
              (std::vector<std::int32_t>{0, 6, -1, -1}));
    EXPECT_EQ(wgram.compute("ACNGTTA").values,
              (std::vector<std::int32_t>{-1, -1, 3, 4}));
    EXPECT_EQ(wgram.compute("acgtta").values,
              (std::vector<std::int32_t>{-1, -1, -1, -1}));
    SignatureScheme qgram(SignatureKind::QGram, {"ACG", "CGT", "GTT", "TTA"});
    EXPECT_EQ(qgram.compute("ACNGTTA").values,
              (std::vector<std::int32_t>{0, 0, 1, 1}));
}

TEST(SignatureScheme, ReadsShorterThanQHaveNoGrams)
{
    SignatureScheme wgram(SignatureKind::WGram, {"ACGT", "CCCC"});
    SignatureScheme qgram(SignatureKind::QGram, {"ACGT", "CCCC"});
    for (const std::string read : {"", "A", "ACG"}) {
        EXPECT_EQ(wgram.compute(read).values,
                  (std::vector<std::int32_t>{-1, -1}));
        EXPECT_EQ(qgram.compute(read).values,
                  (std::vector<std::int32_t>{0, 0}));
    }
    EXPECT_EQ(wgram.compute("ACGT").values,
              (std::vector<std::int32_t>{0, -1}));
}

TEST(SignatureScheme, RandomConstructionHasRequestedShape)
{
    Rng rng(1);
    SignatureScheme scheme(SignatureKind::QGram, rng, 4, 32);
    EXPECT_EQ(scheme.dimensions(), 32u);
    for (const auto &probe : scheme.probeSet())
        EXPECT_EQ(probe.size(), 4u);
}

TEST(SignatureScheme, SameClusterCloserThanDifferent)
{
    // The statistical backbone of the clustering module: reads of the
    // same strand have closer signatures than reads of different
    // strands, for both schemes.
    Rng rng(2);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    const Strand s1 = strand::random(rng, 130);
    const Strand s2 = strand::random(rng, 130);

    for (SignatureKind kind : {SignatureKind::QGram, SignatureKind::WGram}) {
        SignatureScheme scheme(kind, rng, 4, 60);
        double intra = 0, inter = 0;
        const int trials = 60;
        for (int t = 0; t < trials; ++t) {
            const auto a = scheme.compute(channel.transmit(s1, rng));
            const auto b = scheme.compute(channel.transmit(s1, rng));
            const auto c = scheme.compute(channel.transmit(s2, rng));
            intra += static_cast<double>(scheme.distance(a, b));
            inter += static_cast<double>(scheme.distance(a, c));
        }
        EXPECT_LT(intra * 2.5, inter)
            << "kind=" << signatureKindName(kind);
    }
}

TEST(SignatureScheme, WGramSeparatesMoreThanQGram)
{
    // The paper's motivation for w-grams: positional signatures push
    // unrelated clusters further apart (relative to intra-cluster
    // spread), cutting gray-zone edit-distance checks.
    Rng rng(3);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.09));
    std::vector<Strand> strands;
    for (int i = 0; i < 30; ++i)
        strands.push_back(strand::random(rng, 130));

    auto separation = [&](SignatureKind kind) {
        SignatureScheme scheme(kind, rng, 4, 60);
        double intra = 0, inter = 0;
        int n = 0;
        for (const auto &s : strands) {
            const auto a = scheme.compute(channel.transmit(s, rng));
            const auto b = scheme.compute(channel.transmit(s, rng));
            const auto other = scheme.compute(
                channel.transmit(strands[rng.below(strands.size())], rng));
            intra += static_cast<double>(scheme.distance(a, b));
            inter += static_cast<double>(scheme.distance(a, other));
            ++n;
        }
        return inter / std::max(intra, 1.0);
    };

    // Not a strict theorem, but holds comfortably at these settings.
    EXPECT_GT(separation(SignatureKind::WGram) * 1.2,
              separation(SignatureKind::QGram));
}

TEST(SignatureKindName, Names)
{
    EXPECT_STREQ(signatureKindName(SignatureKind::QGram), "q-gram");
    EXPECT_STREQ(signatureKindName(SignatureKind::WGram), "w-gram");
}

} // namespace
} // namespace dnastore
