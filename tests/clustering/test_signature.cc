/**
 * @file
 * Tests for q-gram and w-gram read signatures and their table.
 */

#include <gtest/gtest.h>

#include "clustering/signature.hh"
#include "simulator/iid_channel.hh"

namespace dnastore
{
namespace
{

/** Per-probe values of one read's signature. */
std::vector<std::int32_t>
values(const SignatureScheme &scheme, const std::string &read)
{
    SignatureTable table(scheme, 1);
    table.compute(0, read);
    std::vector<std::int32_t> out(scheme.dimensions());
    for (std::size_t p = 0; p < out.size(); ++p)
        out[p] = table.value(0, p);
    return out;
}

/** Signature distance between two reads. */
std::int64_t
distance(const SignatureScheme &scheme, const std::string &a,
         const std::string &b)
{
    SignatureTable table(scheme, 2);
    table.compute(0, a);
    table.compute(1, b);
    return table.distance(0, 1);
}

TEST(SignatureScheme, QGramBitsMatchPresence)
{
    SignatureScheme scheme(SignatureKind::QGram, {"AC", "GG", "TT"});
    // AC present, GG and TT absent.
    EXPECT_EQ(values(scheme, "ACGTAC"), (std::vector<std::int32_t>{1, 0, 0}));
}

TEST(SignatureScheme, WGramRecordsFirstPositions)
{
    SignatureScheme scheme(SignatureKind::WGram, {"AC", "GT", "CC"});
    EXPECT_EQ(values(scheme, "ACGTAC"),
              (std::vector<std::int32_t>{0, 2, -1})); // CC absent
}

TEST(SignatureScheme, QGramDistanceIsHamming)
{
    SignatureScheme scheme(SignatureKind::QGram, {"AA", "CC", "GG", "TT"});
    // {1,1,0,0} against {1,0,1,0}.
    EXPECT_EQ(distance(scheme, "AACC", "AAGG"), 2);
    EXPECT_EQ(distance(scheme, "AACC", "AACC"), 0);
}

TEST(SignatureScheme, WGramDistanceIsL1)
{
    SignatureScheme scheme(SignatureKind::WGram, {"AC"});
    // Positions 0, 2 and absent (-1).
    EXPECT_EQ(distance(scheme, "ACGT", "GGACGT"), 2);
    EXPECT_EQ(distance(scheme, "ACGT", "GGGG"), 1);
    EXPECT_EQ(distance(scheme, "GGGG", "GGGG"), 0);
}

TEST(SignatureTable, RowsAreIndependentAndRecomputable)
{
    for (SignatureKind kind : {SignatureKind::QGram, SignatureKind::WGram}) {
        SignatureScheme scheme(kind, {"AC", "GT"});
        SignatureTable table(scheme, 3);
        table.compute(0, "ACGT");
        table.compute(2, "GTAC");
        table.compute(1, "ACGT");
        table.compute(1, "CCCC"); // overwrites the row
        EXPECT_EQ(table.value(0, 0), kind == SignatureKind::QGram ? 1 : 0);
        EXPECT_EQ(table.value(2, 0), kind == SignatureKind::QGram ? 1 : 2);
        EXPECT_EQ(table.value(1, 0), kind == SignatureKind::QGram ? 0 : -1);
        EXPECT_EQ(table.value(1, 1), kind == SignatureKind::QGram ? 0 : -1);
    }
}

TEST(SignatureScheme, QGramProbeSetFitsOneMask)
{
    // Every 4-gram, in code order: more than a 64-bit mask can hold.
    std::vector<std::string> grams;
    for (std::size_t code = 0; code < 256; ++code) {
        std::string gram;
        for (std::size_t k = 4; k-- > 0;)
            gram += "ACGT"[(code >> (2 * k)) & 3];
        grams.push_back(gram);
    }
    const std::vector<std::string> fits(grams.begin(), grams.begin() + 64);
    const std::vector<std::string> over(grams.begin(), grams.begin() + 65);
    EXPECT_NO_THROW(SignatureScheme(SignatureKind::QGram, fits));
    EXPECT_THROW(SignatureScheme(SignatureKind::QGram, over),
                 std::invalid_argument);
    EXPECT_NO_THROW(SignatureScheme(SignatureKind::WGram, over));
    Rng rng(4);
    EXPECT_THROW(SignatureScheme(SignatureKind::QGram, rng, 4, 65),
                 std::invalid_argument);

    // The last probe owns the mask's top bit.
    const SignatureScheme scheme(SignatureKind::QGram, fits);
    EXPECT_EQ(distance(scheme, grams[63], grams[0]), 2);
    EXPECT_EQ(values(scheme, grams[63]).back(), 1);
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
    EXPECT_EQ(values(wgram, "ACGtTACGT"),
              (std::vector<std::int32_t>{0, 6, -1, -1}));
    EXPECT_EQ(values(wgram, "ACNGTTA"),
              (std::vector<std::int32_t>{-1, -1, 3, 4}));
    EXPECT_EQ(values(wgram, "acgtta"),
              (std::vector<std::int32_t>{-1, -1, -1, -1}));
    SignatureScheme qgram(SignatureKind::QGram, {"ACG", "CGT", "GTT", "TTA"});
    EXPECT_EQ(values(qgram, "ACNGTTA"),
              (std::vector<std::int32_t>{0, 0, 1, 1}));
}

TEST(SignatureScheme, ReadsShorterThanQHaveNoGrams)
{
    SignatureScheme wgram(SignatureKind::WGram, {"ACGT", "CCCC"});
    SignatureScheme qgram(SignatureKind::QGram, {"ACGT", "CCCC"});
    for (const std::string read : {"", "A", "ACG"}) {
        EXPECT_EQ(values(wgram, read), (std::vector<std::int32_t>{-1, -1}));
        EXPECT_EQ(values(qgram, read), (std::vector<std::int32_t>{0, 0}));
    }
    EXPECT_EQ(values(wgram, "ACGT"),
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
    // strands, for both schemes.  Each trial draws a fresh strand pair,
    // so the ratio measures the scheme, not one pair.  Over seeds 1-400
    // of this exact loop the inter/intra ratio averaged 2.67 (q-gram)
    // and 2.51 (w-gram), and never fell below 2.42 / 2.26 with the
    // per-base i.i.d. channel (2.39 / 2.28 with the per-event one), so
    // a bound of 2 holds on every seed with room to spare.
    Rng rng(2);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));

    for (SignatureKind kind : {SignatureKind::QGram, SignatureKind::WGram}) {
        SignatureScheme scheme(kind, rng, 4, 60);
        double intra = 0, inter = 0;
        const int trials = 120;
        for (int t = 0; t < trials; ++t) {
            const Strand s1 = strand::random(rng, 130);
            const Strand s2 = strand::random(rng, 130);
            const Strand a = channel.transmit(s1, rng);
            const Strand b = channel.transmit(s1, rng);
            const Strand c = channel.transmit(s2, rng);
            intra += static_cast<double>(distance(scheme, a, b));
            inter += static_cast<double>(distance(scheme, a, c));
        }
        EXPECT_LT(intra * 2.0, inter)
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
            const Strand a = channel.transmit(s, rng);
            const Strand b = channel.transmit(s, rng);
            const Strand other =
                channel.transmit(strands[rng.below(strands.size())], rng);
            intra += static_cast<double>(distance(scheme, a, b));
            inter += static_cast<double>(distance(scheme, a, other));
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
