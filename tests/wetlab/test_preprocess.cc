/**
 * @file
 * Tests for the wetlab FASTQ preprocessing module (orientation fixing
 * and primer trimming, paper Section VIII).
 */

#include <gtest/gtest.h>

#include "simulator/iid_channel.hh"
#include "wetlab/preprocess.hh"

namespace dnastore
{
namespace
{

struct Fixture
{
    Fixture() : rng(11), lib(PrimerLibrary::design(rng, 4)), pair(lib.pairFor(0))
    {
    }

    Rng rng;
    PrimerLibrary lib;
    PrimerPair pair;
};

TEST(Preprocess, ForwardReadsPassThrough)
{
    Fixture f;
    std::vector<Strand> raw;
    std::vector<Strand> payloads;
    for (int i = 0; i < 20; ++i) {
        payloads.push_back(strand::random(f.rng, 80));
        raw.push_back(attachPrimers(f.pair, payloads.back()));
    }
    const auto result = preprocessReads(raw, f.pair);
    EXPECT_EQ(result.total, 20u);
    EXPECT_EQ(result.rejected, 0u);
    EXPECT_EQ(result.flipped, 0u);
    ASSERT_EQ(result.reads.size(), 20u);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(result.reads[i], payloads[i]);
}

TEST(Preprocess, ReverseOrientedReadsAreFlipped)
{
    Fixture f;
    std::vector<Strand> raw;
    std::vector<Strand> payloads;
    for (int i = 0; i < 20; ++i) {
        payloads.push_back(strand::random(f.rng, 80));
        raw.push_back(strand::reverseComplement(
            attachPrimers(f.pair, payloads.back())));
    }
    const auto result = preprocessReads(raw, f.pair);
    EXPECT_EQ(result.flipped, 20u);
    EXPECT_EQ(result.rejected, 0u);
    ASSERT_EQ(result.reads.size(), 20u);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(result.reads[i], payloads[i]);
}

TEST(Preprocess, MixedOrientationsBothRecovered)
{
    Fixture f;
    const Strand payload = strand::random(f.rng, 60);
    const Strand tagged = attachPrimers(f.pair, payload);
    const auto result = preprocessReads(
        {tagged, strand::reverseComplement(tagged)}, f.pair);
    ASSERT_EQ(result.reads.size(), 2u);
    EXPECT_EQ(result.reads[0], payload);
    EXPECT_EQ(result.reads[1], payload);
    EXPECT_EQ(result.flipped, 1u);
}

TEST(Preprocess, ForeignPrimersRejected)
{
    Fixture f;
    const auto other = f.lib.pairFor(1);
    std::vector<Strand> raw;
    for (int i = 0; i < 10; ++i)
        raw.push_back(attachPrimers(other, strand::random(f.rng, 60)));
    const auto result = preprocessReads(raw, f.pair);
    EXPECT_EQ(result.rejected, 10u);
    EXPECT_TRUE(result.reads.empty());
}

TEST(Preprocess, GarbageRejected)
{
    Fixture f;
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = 2;
    std::vector<Strand> raw;
    for (int i = 0; i < 10; ++i)
        raw.push_back(strand::random(f.rng, 100));
    const auto result = preprocessReads(raw, f.pair, cfg);
    EXPECT_EQ(result.rejected, 10u);
}

TEST(Preprocess, SurvivesSequencingNoise)
{
    Fixture f;
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.05));
    std::vector<Strand> raw;
    for (int i = 0; i < 100; ++i) {
        const Strand tagged =
            attachPrimers(f.pair, strand::random(f.rng, 80));
        Strand read = channel.transmit(tagged, f.rng);
        if (i % 2 == 1)
            read = strand::reverseComplement(read);
        raw.push_back(read);
    }
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = 5;
    const auto result = preprocessReads(raw, f.pair, cfg);
    // The overwhelming majority of noisy reads must survive
    // preprocessing with usable payloads.
    EXPECT_GT(result.reads.size(), 90u);
    EXPECT_GT(result.flipped, 40u);
    for (const auto &payload : result.reads)
        EXPECT_NEAR(static_cast<double>(payload.size()), 80.0, 12.0);
}

TEST(Preprocess, PrimerErrorsLeavePayloadIntact)
{
    Rng rng(7);
    const auto lib = PrimerLibrary::design(rng, 2);
    const auto pair = lib.pairFor(0);
    const Strand payload = strand::random(rng, 80);
    Strand tagged = attachPrimers(pair, payload);
    tagged[3] = tagged[3] == 'A' ? 'G' : 'A';      // error in fwd primer
    tagged.erase(tagged.size() - 5, 1);            // error in rev primer
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = 4;
    const auto result = preprocessReads(
        {tagged, strand::reverseComplement(tagged)}, pair, cfg);
    EXPECT_EQ(result.rejected, 0u);
    EXPECT_EQ(result.flipped, 1u);
    // Both orientations keep the payload intact (errors were in the
    // primers).
    ASSERT_EQ(result.reads.size(), 2u);
    EXPECT_EQ(result.reads[0], payload);
    EXPECT_EQ(result.reads[1], payload);
}

TEST(Preprocess, TooShortReadsRejected)
{
    Fixture f;
    const auto result = preprocessReads({"ACGT"}, f.pair);
    EXPECT_EQ(result.rejected, 1u);
}

TEST(Preprocess, FastqPathMatchesReadPath)
{
    Fixture f;
    const Strand payload = strand::random(f.rng, 70);
    const Strand tagged = attachPrimers(f.pair, payload);
    const auto fastq = readsToFastq({tagged}, "test");
    ASSERT_EQ(fastq.size(), 1u);
    EXPECT_EQ(fastq[0].id, "test_0");
    EXPECT_EQ(fastq[0].sequence.size(), fastq[0].quality.size());

    const auto result = preprocessFastq(fastq, f.pair);
    ASSERT_EQ(result.reads.size(), 1u);
    EXPECT_EQ(result.reads[0], payload);
}

} // namespace
} // namespace dnastore
