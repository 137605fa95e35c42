/**
 * @file
 * Differential tests for wetlab preprocessing: preprocessReads (one DP
 * per primer end) against the earlier primer handling kept verbatim in
 * preprocess_reference.hh (two orientation DPs, then one banded DP per
 * cut point at each end).  Every PreprocessResult field must match:
 * the payloads and their order, total, flipped and rejected.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dna/distance.hh"
#include "simulator/iid_channel.hh"
#include "wetlab/preprocess.hh"
#include "wetlab/preprocess_reference.hh"

namespace dnastore
{
namespace
{

/** Readable form of a string that may hold any byte. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c >= ' ' && c <= '~') {
            out += c;
        } else {
            out += "\\x" + std::to_string(static_cast<unsigned char>(c));
        }
    }
    return out + "\"";
}

/**
 * Empty when preprocessReads and the reference agree on @p raw;
 * otherwise a description naming the first read they disagree on.
 */
std::string
mismatch(const std::vector<Strand> &raw, const PrimerPair &pair,
         std::size_t max_edit)
{
    WetlabPreprocessConfig cfg;
    cfg.primer_max_edit = max_edit;
    const PreprocessResult want = reference::preprocessReads(raw, pair, cfg);
    const PreprocessResult got = preprocessReads(raw, pair, cfg);
    if (got.reads == want.reads && got.total == want.total &&
        got.flipped == want.flipped && got.rejected == want.rejected)
        return "";
    const std::string where = "pair " + quoted(pair.forward) + "/" +
                              quoted(pair.reverse) + ", max_edit " +
                              std::to_string(max_edit);
    for (const Strand &read : raw) {
        const PreprocessResult w =
            reference::preprocessReads({read}, pair, cfg);
        const PreprocessResult g = preprocessReads({read}, pair, cfg);
        if (g.reads != w.reads || g.flipped != w.flipped ||
            g.rejected != w.rejected) {
            return where + ", read " + quoted(read) + ": want " +
                   (w.reads.empty() ? "rejected" : quoted(w.reads[0])) +
                   " flipped " + std::to_string(w.flipped) + ", got " +
                   (g.reads.empty() ? "rejected" : quoted(g.reads[0])) +
                   " flipped " + std::to_string(g.flipped);
        }
    }
    return where + ": counters differ on the set only";
}

/** A slice of @p s: a random prefix or suffix, down to empty. */
Strand
truncated(const Strand &s, Rng &rng)
{
    const std::size_t keep =
        static_cast<std::size_t>(rng.below(s.size() + 1));
    return rng.chance(0.5) ? s.substr(0, keep) : s.substr(s.size() - keep);
}

/**
 * 400 reads of the shapes a sequencer hands back for one file: reads
 * of the pair through an i.i.d. channel, foreign-pair reads, truncated
 * reads, junk and reads with (almost) no payload, each in either
 * orientation.
 */
std::vector<Strand>
seededReads(std::uint64_t seed, double error_rate, const PrimerPair &pair,
            const PrimerPair &foreign)
{
    Rng rng(seed);
    const IidChannel channel(IidChannelConfig::fromTotalErrorRate(error_rate));
    std::vector<Strand> reads;
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t kind = rng.below(10);
        const std::size_t payload_len = kind == 9
            ? static_cast<std::size_t>(rng.below(4))
            : static_cast<std::size_t>(rng.range(40, 140));
        const Strand payload = strand::random(rng, payload_len);
        Strand read;
        if (kind == 6) {
            read = channel.transmit(attachPrimers(foreign, payload), rng);
        } else if (kind == 7) {
            read = truncated(
                channel.transmit(attachPrimers(pair, payload), rng), rng);
        } else if (kind == 8) {
            read = strand::random(
                rng, static_cast<std::size_t>(rng.below(160)));
        } else {
            read = channel.transmit(attachPrimers(pair, payload), rng);
        }
        if (rng.chance(0.5))
            read = strand::reverseComplement(read);
        reads.push_back(std::move(read));
    }
    return reads;
}

/** (max_edit, error rate in percent): one ctest entry each. */
class PreprocessDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(PreprocessDifferential, SeededReadSetsMatchReference)
{
    const auto [max_edit, rate_percent] = GetParam();
    const double rate = static_cast<double>(rate_percent) / 100.0;
    Rng lib_rng(23);
    const PrimerLibrary lib = PrimerLibrary::design(lib_rng, 4);
    const PrimerPair pair = lib.pairFor(0);
    const PrimerPair foreign = lib.pairFor(1);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const std::uint64_t set_seed = seed * 100000 + max_edit * 100 +
            static_cast<std::uint64_t>(rate_percent);
        ASSERT_EQ(mismatch(seededReads(set_seed, rate, pair, foreign), pair,
                           max_edit),
                  "")
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sets, PreprocessDifferential,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{5},
                                         std::size_t{8}, std::size_t{25}),
                       ::testing::Values(0, 3, 8, 15, 30)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, int>> &set) {
        return "MaxEdit" + std::to_string(std::get<0>(set.param)) +
               "Rate" + std::to_string(std::get<1>(set.param));
    });

TEST(PreprocessDifferential, OrientationTiesStayForward)
{
    // rc(reverse) = AAAAAACC: the prefix AAAAAAAC is one edit from both
    // primers, and AAAAAAAA... starts the forward read itself.
    const PrimerPair pair{"AAAAAAAA", "GGTTTTTT"};
    const Strand tie = "AAAAAAAC";
    ASSERT_EQ(levenshtein(tie, pair.forward),
              levenshtein(tie, strand::reverseComplement(pair.reverse)));
    const std::vector<Strand> reads = {
        tie + "GATTACAGATTACA" + pair.reverse,
        tie + "GATTACAGATTACA" + strand::reverseComplement(pair.forward),
        tie + "CA" + "GGTTTTTT",
        "AAAAAACCGATTACATTTTTTTT",
    };
    for (std::size_t max_edit = 0; max_edit <= 4; ++max_edit)
        EXPECT_EQ(mismatch(reads, pair, max_edit), "") << max_edit;

    // When rc(reverse) is the forward primer, every read ties.
    const PrimerPair mirrored{"ACGTTGCC",
                              strand::reverseComplement("ACGTTGCC")};
    const std::vector<Strand> tied = {
        attachPrimers(mirrored, "GATTACA"),
        strand::reverseComplement(attachPrimers(mirrored, "GATTACA")),
        attachPrimers(mirrored, ""),
        "ACGTTGC",
    };
    for (std::size_t max_edit = 0; max_edit <= 4; ++max_edit)
        EXPECT_EQ(mismatch(tied, mirrored, max_edit), "") << max_edit;
}

TEST(PreprocessDifferential, EqualCutsTakeTheFirst)
{
    // AAAG and AAAGC are both one edit from AAAC: the front cut is 4 at
    // max_edit >= 1.  Mirrored, the same holds at the back.
    const PrimerPair pair{"AAAC", "GTTT"};
    ASSERT_EQ(levenshtein("AAAG", "AAAC"), 1u);
    ASSERT_EQ(levenshtein("AAAGC", "AAAC"), 1u);
    const std::vector<Strand> reads = {
        "AAAGCTAGCTAGGTTT", "AAAGCTAGCTAGCGTTT", "AAAGCTAGCTAGGATTT",
        strand::reverseComplement("AAAGCTAGCTAGGATTT"),
    };
    for (std::size_t max_edit = 0; max_edit <= 6; ++max_edit)
        EXPECT_EQ(mismatch(reads, pair, max_edit), "") << max_edit;
}

TEST(PreprocessDifferential, ShortReadsEmptyPrimersAndWideTolerance)
{
    const PrimerPair pair{"ACGTACGTAC", "TTGCAGGCAT"};
    const std::vector<Strand> reads = {
        "", "A", "ACGTA", "ACGTACGTA",          // shorter than one primer
        "ACGTACGTAC", "ACGTACGTACTTGCAGG",      // shorter than both
        "ACGTACGTACTTGCAGGCAT",                 // exactly both: no payload
        "ACGTACGTACGTTGCAGGCAT",                // one-base payload
        strand::reverseComplement("ACGTACGTACTTGCAGG"),
    };
    // max_edit from 0 to well past the primer length.
    for (std::size_t max_edit = 0; max_edit <= 25; ++max_edit) {
        EXPECT_EQ(mismatch(reads, pair, max_edit), "") << max_edit;
        EXPECT_EQ(mismatch(reads, {"", pair.reverse}, max_edit), "");
        EXPECT_EQ(mismatch(reads, {pair.forward, ""}, max_edit), "");
        EXPECT_EQ(mismatch(reads, {"", ""}, max_edit), "");
    }
}

TEST(PreprocessDifferential, SmallRandomAlphabetsMatchReference)
{
    // Tiny primers and reads over few symbols (some outside ACGT, which
    // complement to themselves) make ties, empty strings and tolerances
    // above the primer length common.
    const std::vector<std::string> alphabets = {"AC", "ACG", "ACGT", "AN",
                                                "ACGTacgtN"};
    Rng rng(2026);
    const auto word = [&rng](const std::string &alphabet, std::size_t max) {
        std::string s(static_cast<std::size_t>(rng.below(max + 1)), 'A');
        for (char &c : s)
            c = alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
        return s;
    };
    for (int trial = 0; trial < 3000; ++trial) {
        const std::string &alphabet = alphabets[rng.below(alphabets.size())];
        const PrimerPair pair{word(alphabet, 5), word(alphabet, 5)};
        std::vector<Strand> reads;
        for (int i = 0; i < 20; ++i) {
            Strand read = rng.chance(0.5)
                ? attachPrimers(pair, word(alphabet, 4))
                : word(alphabet, 14);
            if (!read.empty() && rng.chance(0.3))
                read[rng.below(read.size())] = 'G';
            reads.push_back(std::move(read));
        }
        const std::size_t max_edit = static_cast<std::size_t>(rng.below(8));
        ASSERT_EQ(mismatch(reads, pair, max_edit), "") << "trial " << trial;
    }
}

} // namespace
} // namespace dnastore
