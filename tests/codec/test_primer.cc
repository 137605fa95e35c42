/**
 * @file
 * Tests for primer library design, tagging and fuzzy stripping.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "archive/manifest.hh"
#include "codec/primer.hh"
#include "dna/distance.hh"
#include "wetlab/preprocess.hh"

namespace dnastore
{
namespace
{

TEST(PrimerLibrary, DesignSatisfiesConstraints)
{
    Rng rng(1);
    PrimerConstraints cons;
    cons.length = 20;
    cons.min_hamming = 8;
    const auto lib = PrimerLibrary::design(rng, 8, cons);
    ASSERT_EQ(lib.size(), 8u);
    for (std::size_t i = 0; i < lib.size(); ++i) {
        const Strand &p = lib.primer(i);
        EXPECT_EQ(p.size(), cons.length);
        EXPECT_GE(strand::gcContent(p), cons.min_gc);
        EXPECT_LE(strand::gcContent(p), cons.max_gc);
        EXPECT_LE(strand::maxHomopolymerRun(p), cons.max_homopolymer);
        for (std::size_t j = i + 1; j < lib.size(); ++j) {
            EXPECT_GE(hammingDistance(p, lib.primer(j)), cons.min_hamming);
            EXPECT_GE(hammingDistance(strand::reverseComplement(p),
                                      lib.primer(j)),
                      cons.min_hamming);
        }
    }
}

TEST(PrimerLibrary, DesignIsDeterministicForSeed)
{
    // The archive persists only a primer seed, not the primers: the
    // same seed must always regenerate the same library.
    const PrimerConstraints cons;
    Rng a(42);
    Rng b(42);
    const auto lib_a = PrimerLibrary::design(a, 6, cons);
    const auto lib_b = PrimerLibrary::design(b, 6, cons);
    ASSERT_EQ(lib_a.size(), lib_b.size());
    for (std::size_t i = 0; i < lib_a.size(); ++i)
        EXPECT_EQ(lib_a.primer(i), lib_b.primer(i));

    Rng c(43);
    const auto lib_c = PrimerLibrary::design(c, 6, cons);
    bool differs = false;
    for (std::size_t i = 0; i < lib_a.size(); ++i)
        differs = differs || lib_a.primer(i) != lib_c.primer(i);
    EXPECT_TRUE(differs);
}

TEST(PrimerLibrary, DesignIsPrefixStableAsLibraryGrows)
{
    // Greedy design accepts candidates in RNG order, so growing the
    // target count extends the library without moving earlier primers.
    // The archive leans on this to mint new pairs for new shards while
    // old pool molecules keep their addresses.
    const PrimerConstraints cons;
    Rng small_rng(0xa5c111e5eedULL); // archive default primer seed
    Rng large_rng(0xa5c111e5eedULL);
    const auto small_lib = PrimerLibrary::design(small_rng, 8, cons);
    const auto large_lib = PrimerLibrary::design(large_rng, 24, cons);
    ASSERT_EQ(large_lib.size(), 24u);
    for (std::size_t i = 0; i < small_lib.size(); ++i)
        EXPECT_EQ(small_lib.primer(i), large_lib.primer(i));
}

TEST(PrimerLibrary, GrowingInStepsMatchesOneDesign)
{
    // The archive grows its library a few pairs at a time, continuing
    // the design's generator; every step size must reproduce exactly the
    // primers of one design call for the final size.
    constexpr std::size_t kPrimers = 300;
    const PrimerConstraints cons;
    const std::uint64_t seed = archive::ArchiveParams{}.primer_seed;
    Rng once_rng(seed);
    const auto once = PrimerLibrary::design(once_rng, kPrimers, cons);
    ASSERT_EQ(once.size(), kPrimers);
    for (const std::size_t step_pairs : {1, 2, 7}) {
        const std::size_t step = 2 * step_pairs;
        Rng rng(seed);
        PrimerLibrary lib = PrimerLibrary::design(rng, step, cons);
        while (lib.size() < kPrimers)
            lib = lib.grown(rng, std::min(kPrimers, lib.size() + step),
                            cons);
        EXPECT_EQ(lib.all(), once.all()) << "step " << step_pairs;
        EXPECT_EQ(rng.next(), Rng(once_rng).next()) << "step " << step_pairs;
    }
}

TEST(PrimerLibrary, ArchiveScaleLibraryHonoursConstraintsPairwise)
{
    // Regression for the archive's primer library (16 pairs from the
    // default seed): every primer respects the composition constraints,
    // and every pair is separated from every other — in both plain and
    // reverse-complement orientation, since a reverse read of one shard
    // must not masquerade as a forward read of another.
    const PrimerConstraints cons;
    Rng rng(0xa5c111e5eedULL);
    const auto lib = PrimerLibrary::design(rng, 32, cons);
    ASSERT_EQ(lib.size(), 32u);
    for (std::size_t i = 0; i < lib.size(); ++i) {
        const Strand &p = lib.primer(i);
        EXPECT_EQ(p.size(), cons.length);
        EXPECT_GE(strand::gcContent(p), cons.min_gc);
        EXPECT_LE(strand::gcContent(p), cons.max_gc);
        EXPECT_LE(strand::maxHomopolymerRun(p), cons.max_homopolymer);
        const Strand rc = strand::reverseComplement(p);
        for (std::size_t j = i + 1; j < lib.size(); ++j) {
            EXPECT_GE(hammingDistance(p, lib.primer(j)), cons.min_hamming)
                << "primers " << i << " and " << j;
            // hamming(rc(a), b) == hamming(rc(b), a), so checking one
            // orientation per pair covers both.
            EXPECT_GE(hammingDistance(rc, lib.primer(j)), cons.min_hamming)
                << "revcomp of primer " << i << " vs primer " << j;
        }
    }
}

TEST(PrimerLibrary, PairForSlices)
{
    Rng rng(2);
    const auto lib = PrimerLibrary::design(rng, 4);
    const auto pair0 = lib.pairFor(0);
    const auto pair1 = lib.pairFor(1);
    EXPECT_EQ(pair0.forward, lib.primer(0));
    EXPECT_EQ(pair0.reverse, lib.primer(1));
    EXPECT_EQ(pair1.forward, lib.primer(2));
    EXPECT_EQ(pair1.reverse, lib.primer(3));
    EXPECT_EQ(lib.numPairs(), 2u);
    EXPECT_THROW(lib.pairFor(2), std::out_of_range);
}

TEST(PrimerLibrary, ConstructorRejectsInvalidPrimers)
{
    EXPECT_THROW(PrimerLibrary({"ACGN"}), std::invalid_argument);
    EXPECT_THROW(PrimerLibrary({""}), std::invalid_argument);
}

TEST(Primers, AttachComposesLayout)
{
    const PrimerPair pair{"AAAACCCC", "GGGGTTTT"};
    const Strand tagged = attachPrimers(pair, "ACGT");
    EXPECT_EQ(tagged, "AAAACCCCACGTGGGGTTTT");
}

// Primer stripping lives in preprocessReads (wetlab/preprocess); these
// cases check it undoes attachPrimers.

TEST(Primers, StripRecoversPayloadExactly)
{
    Rng rng(6);
    const auto lib = PrimerLibrary::design(rng, 2);
    const auto pair = lib.pairFor(0);
    const Strand payload = strand::random(rng, 80);
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = 3;
    const auto result =
        preprocessReads({attachPrimers(pair, payload)}, pair, cfg);
    EXPECT_EQ(result.rejected, 0u);
    EXPECT_EQ(result.flipped, 0u);
    ASSERT_EQ(result.reads.size(), 1u);
    EXPECT_EQ(result.reads[0], payload);
}

TEST(Primers, StripRejectsForeignStrand)
{
    Rng rng(8);
    const auto lib = PrimerLibrary::design(rng, 4);
    const auto pair = lib.pairFor(0);
    const auto other = lib.pairFor(1);
    const Strand tagged = attachPrimers(other, strand::random(rng, 80));
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = 3;
    const auto result = preprocessReads({tagged}, pair, cfg);
    EXPECT_EQ(result.rejected, 1u);
    EXPECT_TRUE(result.reads.empty());
}

TEST(Primers, StripRejectsTooShortStrand)
{
    const PrimerPair pair{"AAAACCCCGGGGTTTTACGT", "TTTTGGGGCCCCAAAATGCA"};
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = 3;
    const auto result = preprocessReads({"ACGT"}, pair, cfg);
    EXPECT_EQ(result.rejected, 1u);
    EXPECT_TRUE(result.reads.empty());
}

} // namespace
} // namespace dnastore
