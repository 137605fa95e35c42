/**
 * @file
 * Differential test of the banded profile-MSA kernel (ProfileMsa::addRead)
 * against a full-width integer DP reference kept here, outside src/.
 *
 * The reference fills every (m+1)(n+1) cell with the same integer scores
 * and the same diagonal > up > left tie order, so the banded kernel must
 * produce the identical profile — column for column, count for count —
 * after every read, and therefore the identical consensus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "dna/align.hh"
#include "dna/base.hh"
#include "dna/strand.hh"
#include "obs/metrics.hh"
#include "simulator/iid_channel.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/random.hh"

namespace dnastore
{
namespace
{

/** Full-DP integer profile MSA: the specification the kernel must meet. */
class ReferenceProfileMsa
{
  public:
    using Column = std::array<std::uint32_t, 5>;

    void
    addRead(const std::string &read)
    {
        std::vector<std::uint8_t> codes;
        for (char c : read)
            codes.push_back(charToCode(c));
        if (reads == 0) {
            for (std::uint8_t code : codes) {
                Column col{};
                col[code] = 1;
                columns.push_back(col);
            }
            reads = 1;
            return;
        }

        const std::size_t m = columns.size(), n = codes.size();
        const auto r = static_cast<std::int64_t>(reads);
        const AlignScores s;
        auto diagScore = [&](const Column &col, std::uint8_t code) {
            const std::int64_t bases =
                std::int64_t{col[0]} + col[1] + col[2] + col[3];
            return std::int64_t{col[code]} * s.match +
                (bases - col[code]) * s.mismatch + std::int64_t{col[4]} * s.gap;
        };
        auto upScore = [&](const Column &col) {
            return (std::int64_t{col[0]} + col[1] + col[2] + col[3]) * s.gap;
        };
        std::vector<std::vector<std::int64_t>> dp(
            m + 1, std::vector<std::int64_t>(n + 1));
        std::vector<std::vector<char>> dir(m + 1, std::vector<char>(n + 1));
        for (std::size_t i = 1; i <= m; ++i) {
            dp[i][0] = dp[i - 1][0] + upScore(columns[i - 1]);
            dir[i][0] = 'U';
        }
        for (std::size_t j = 1; j <= n; ++j) {
            dp[0][j] = dp[0][j - 1] + r * s.gap;
            dir[0][j] = 'L';
        }
        for (std::size_t i = 1; i <= m; ++i) {
            for (std::size_t j = 1; j <= n; ++j) {
                const std::int64_t diag =
                    dp[i - 1][j - 1] + diagScore(columns[i - 1], codes[j - 1]);
                const std::int64_t up = dp[i - 1][j] + upScore(columns[i - 1]);
                const std::int64_t left = dp[i][j - 1] + r * s.gap;
                dp[i][j] = diag;
                dir[i][j] = 'D';
                if (up > dp[i][j]) {
                    dp[i][j] = up;
                    dir[i][j] = 'U';
                }
                if (left > dp[i][j]) {
                    dp[i][j] = left;
                    dir[i][j] = 'L';
                }
            }
        }

        std::vector<Column> merged;
        std::size_t i = m, j = n;
        while (i > 0 || j > 0) {
            if (i > 0 && j > 0 && dir[i][j] == 'D') {
                Column col = columns[--i];
                ++col[codes[--j]];
                merged.push_back(col);
            } else if (i > 0 && (dir[i][j] == 'U' || j == 0)) {
                Column col = columns[--i];
                ++col[4];
                merged.push_back(col);
            } else {
                Column col{};
                col[codes[--j]] = 1;
                col[4] = static_cast<std::uint32_t>(reads);
                merged.push_back(col);
            }
        }
        std::reverse(merged.begin(), merged.end());
        columns = std::move(merged);
        ++reads;
    }

    /** Majority vote, then drop the most gapped excess columns. */
    std::string
    consensus(std::size_t expected_length) const
    {
        std::string bases;
        std::vector<std::uint32_t> gaps;
        for (const Column &col : columns) {
            const auto best = static_cast<std::uint8_t>(
                std::max_element(col.begin(), col.begin() + 4) - col.begin());
            if (col[best] == 0 || col[4] > col[best])
                continue;
            bases.push_back(baseToChar(best));
            gaps.push_back(col[4]);
        }
        while (bases.size() > expected_length) {
            // The first of the most gapped columns goes, matching a
            // stable sort by descending gap count.
            const auto worst = static_cast<std::size_t>(
                std::max_element(gaps.begin(), gaps.end()) - gaps.begin());
            bases.erase(worst, 1);
            gaps.erase(gaps.begin() + static_cast<std::ptrdiff_t>(worst));
        }
        return bases;
    }

    std::vector<Column> columns;
    std::size_t reads = 0;
};

std::uint64_t
widenings()
{
    return obs::metrics().counter("dna.msa_band_widenings_total").value();
}

std::uint64_t
retries()
{
    return obs::metrics().counter("dna.msa_band_retries_total").value();
}

/** True iff the kernel's profile equals the reference's, count for count. */
::testing::AssertionResult
sameProfile(const ProfileMsa &msa, const ReferenceProfileMsa &ref)
{
    if (msa.numColumns() != ref.columns.size()) {
        return ::testing::AssertionFailure()
            << msa.numColumns() << " columns vs reference "
            << ref.columns.size();
    }
    for (std::size_t c = 0; c < ref.columns.size(); ++c) {
        for (std::uint8_t b = 0; b < 4; ++b) {
            if (msa.baseCount(c, b) != ref.columns[c][b]) {
                return ::testing::AssertionFailure()
                    << "column " << c << " base " << int{b};
            }
        }
        if (msa.gapCount(c) != ref.columns[c][4])
            return ::testing::AssertionFailure() << "column " << c << " gaps";
    }
    return ::testing::AssertionSuccess();
}

/** The band a read was aligned in: guided, its wider retry, or full. */
enum class Rung { Guided, Retry, FullWidth };

/**
 * Add @p read to both MSAs; checks the profiles still match and returns
 * the rung of the band ladder the kernel's alignment was proved on.
 */
Rung
addToBoth(ProfileMsa &msa, ReferenceProfileMsa &ref, const Strand &read)
{
    const std::uint64_t retries_before = retries();
    const std::uint64_t widenings_before = widenings();
    msa.addRead(read);
    ref.addRead(read);
    EXPECT_TRUE(sameProfile(msa, ref));
    const std::uint64_t retried = retries() - retries_before;
    const std::uint64_t widened = widenings() - widenings_before;
    EXPECT_LE(retried + widened, 1u);
    return widened > 0 ? Rung::FullWidth
                       : retried > 0 ? Rung::Retry : Rung::Guided;
}

TEST(ProfileMsaBand, MatchesFullDpReferenceOnSeededClusters)
{
    VirtualWetlabConfig wetlab_cfg;
    std::size_t clusters = 0, reads = 0;
    const std::uint64_t widenings_before = widenings();
    const std::uint64_t retries_before = retries();
    for (const bool wetlab : {false, true}) {
        for (const double rate : {0.03, 0.06, 0.10, 0.15}) {
            wetlab_cfg.base_error_rate = rate;
            const VirtualWetlabChannel wetlab_channel(wetlab_cfg);
            const IidChannel iid_channel(
                IidChannelConfig::fromTotalErrorRate(rate));
            const Channel &channel = wetlab
                ? static_cast<const Channel &>(wetlab_channel)
                : static_cast<const Channel &>(iid_channel);
            for (const std::size_t coverage : {5u, 20u, 50u}) {
                for (const std::size_t length : {60u, 120u, 200u}) {
                    Rng rng(1000 * coverage + length +
                            static_cast<std::uint64_t>(rate * 100) +
                            (wetlab ? 7 : 0));
                    const Strand original = strand::random(rng, length);
                    ProfileMsa msa;
                    ReferenceProfileMsa ref;
                    for (std::size_t r = 0; r < coverage; ++r) {
                        const Strand read = channel.transmit(original, rng);
                        if (read.empty())
                            continue;
                        msa.addRead(read);
                        ref.addRead(read);
                        ASSERT_TRUE(sameProfile(msa, ref))
                            << channel.name() << " rate " << rate
                            << " coverage " << coverage << " length "
                            << length << " after read " << r;
                        ++reads;
                    }
                    EXPECT_EQ(msa.consensus(length), ref.consensus(length));
                    ++clusters;
                }
            }
        }
    }
    EXPECT_EQ(clusters, 72u);
    // A band centred on the diagonal reran 76 of these reads at full
    // width; following the majority columns must not rerun more.
    const std::uint64_t widened = widenings() - widenings_before;
    EXPECT_LE(widened, 76u);
    std::cout << reads << " reads in " << clusters << " clusters, "
              << retries() - retries_before << " retried, " << widened
              << " widened\n";
}

TEST(ProfileMsaBand, MatchesFullDpReferenceOnShortIndelHeavyStrands)
{
    // Short strands under channels dominated by one kind of indel:
    // insertion-heavy reads give the profile many columns that are not
    // majority ones, so the band's edges stall often, and both kinds
    // stray far from the centre.  The profile must match the reference
    // after every read.
    const IidChannel insertion_heavy(IidChannelConfig{0.12, 0.03, 0.03});
    const IidChannel deletion_heavy(IidChannelConfig{0.03, 0.12, 0.03});
    Rng rng(20);
    std::size_t reads = 0;
    const std::uint64_t retries_before = retries();
    const std::uint64_t widenings_before = widenings();
    for (std::size_t cluster = 0; reads < 100000; ++cluster) {
        const Channel &channel =
            cluster % 2 == 0 ? static_cast<const Channel &>(insertion_heavy)
                             : static_cast<const Channel &>(deletion_heavy);
        const auto length = static_cast<std::size_t>(rng.range(8, 70));
        const Strand original = strand::random(rng, length);
        ProfileMsa msa;
        ReferenceProfileMsa ref;
        for (std::size_t r = 0; r < 25; ++r) {
            const Strand read = channel.transmit(original, rng);
            if (read.empty())
                continue;
            msa.addRead(read);
            ref.addRead(read);
            ASSERT_TRUE(sameProfile(msa, ref))
                << channel.name() << " cluster " << cluster << " length "
                << length << " after read " << r;
            ++reads;
        }
    }
    std::cout << reads << " reads, " << retries() - retries_before
              << " retried, " << widenings() - widenings_before
              << " widened\n";
}

TEST(ProfileMsaBand, ReadsAcrossInsertionColumnsTakeEachRung)
{
    // Four clean copies and one read carrying 25 inserted bases give a
    // profile of 225 columns, 200 of them majority ones: across the 25
    // insertion columns both band edges stall.
    Rng rng(24);
    const Strand original = strand::random(rng, 200);
    const Strand inserted = strand::random(rng, 25);
    ProfileMsa msa;
    ReferenceProfileMsa ref;
    for (int r = 0; r < 4; ++r)
        addToBoth(msa, ref, original);
    addToBoth(msa, ref, original.substr(0, 40) + inserted + original.substr(40));
    ASSERT_EQ(msa.numColumns(), 225u);

    // A clean copy gaps the insertion columns and stays on the centre.
    EXPECT_EQ(addToBoth(msa, ref, original), Rung::Guided);
    // Eight bases lost before the insertion columns and given back by a
    // tail: the read gaps those columns on the band's left edge.
    EXPECT_EQ(addToBoth(msa, ref,
                        original.substr(0, 30) + original.substr(38) +
                            strand::random(rng, 8)),
              Rung::Guided);
    // The same insertion, its length given back by a lost tail: the
    // read runs 25 above the centre from the insertion on, outside the
    // guided band but inside the retry's 33 more (the profile now has
    // 33 columns that are not majority ones).
    EXPECT_EQ(addToBoth(msa, ref,
                        original.substr(0, 40) + inserted +
                            original.substr(40, 135)),
              Rung::Retry);
    // Twenty more inserted bases and twenty more lost: 45 above the
    // centre, beyond the retry's 41 too.
    EXPECT_EQ(addToBoth(msa, ref,
                        original.substr(0, 40) + inserted +
                            strand::random(rng, 20) + original.substr(40, 115)),
              Rung::FullWidth);
    EXPECT_EQ(msa.consensus(original.size()), original);
    EXPECT_EQ(msa.consensus(original.size()),
              ref.consensus(original.size()));
}

/** Four clean copies of @p original, then @p read; checks it widened. */
void
expectWidenedAndExact(const Strand &original, const Strand &read)
{
    ProfileMsa msa;
    ReferenceProfileMsa ref;
    for (int r = 0; r < 4; ++r) {
        msa.addRead(original);
        ref.addRead(original);
    }
    const std::uint64_t before = widenings();
    msa.addRead(read);
    ref.addRead(read);
    EXPECT_GT(widenings(), before);
    EXPECT_TRUE(sameProfile(msa, ref));
    EXPECT_EQ(msa.consensus(original.size()),
              ref.consensus(original.size()));
    EXPECT_EQ(msa.consensus(original.size()), original);
}

/**
 * The reads of one seeded stall case: clean copies of a strand, then
 * fewer copies carrying an insertion block (so its columns are not
 * majority ones and the band's edges stall across them), then a probe
 * read cut from either with three block edits of 8-14 bases, about the
 * band's slack.
 */
std::vector<Strand>
stallCaseReads(std::uint64_t seed)
{
    Rng rng(seed);
    const auto length = static_cast<std::size_t>(rng.range(60, 140));
    const Strand original = strand::random(rng, length);
    const std::int64_t clean = rng.range(2, 6);
    const std::int64_t carriers = rng.range(1, clean - 1);
    const auto at = static_cast<std::size_t>(rng.below(length + 1));
    const auto block = static_cast<std::size_t>(rng.range(3, 35));
    const Strand carrier =
        original.substr(0, at) + strand::random(rng, block) + original.substr(at);
    std::vector<Strand> reads(static_cast<std::size_t>(clean), original);
    reads.insert(reads.end(), static_cast<std::size_t>(carriers), carrier);

    Strand probe = rng.chance(0.5) ? carrier : original;
    for (int edit = 0; edit < 3; ++edit) {
        const auto pos = static_cast<std::size_t>(rng.below(probe.size() + 1));
        const auto size = static_cast<std::size_t>(rng.range(8, 14));
        if (rng.chance(0.5))
            probe.erase(pos, size);
        else
            probe.insert(pos, strand::random(rng, size));
    }
    if (!probe.empty())
        reads.push_back(probe);
    return reads;
}

TEST(ProfileMsaBand, BlockEditsAcrossInsertionColumnsMatchReference)
{
    // Each probe must match the reference on whichever rung proved it.
    // A bound that misses a way out of the band through a stalled edge
    // shows up here as a wrong profile: a kernel that reads the stale
    // cell under a stalled left edge fails several cases below 2000,
    // and one whose bound drops the diagonal out of a stalled right
    // edge fails case 28986, the first such case past 2000 (the
    // bound's slack hides that gap unless the path leaves the band by
    // one column, on steps the bound scores exactly).
    std::vector<std::uint64_t> cases;
    for (std::uint64_t seed = 1; seed <= 2000; ++seed)
        cases.push_back(seed);
    cases.push_back(28986);
    std::array<std::size_t, 3> rungs{};
    for (const std::uint64_t seed : cases) {
        const std::vector<Strand> reads = stallCaseReads(seed);
        ProfileMsa msa;
        ReferenceProfileMsa ref;
        Rung probe_rung = Rung::Guided;
        for (const Strand &read : reads)
            probe_rung = addToBoth(msa, ref, read);
        ++rungs[static_cast<std::size_t>(probe_rung)];
        ASSERT_TRUE(sameProfile(msa, ref)) << "case " << seed;
    }
    // The bound must stay as tight as when this test was written: a
    // looser one (say, one that counts the up move out of a stalled
    // left edge as leaving the band) sends more probes to a rerun.
    EXPECT_LE(rungs[1] + rungs[2], 685u);
    std::cout << "probes: " << rungs[0] << " guided, " << rungs[1]
              << " retried, " << rungs[2] << " widened\n";
}

TEST(ProfileMsaBand, DeletionBlockForcesWideningAndMatchesReference)
{
    // A 25-base deletion block early in the read, its length restored
    // by a 25-base tail: the true alignment runs 25 diagonals below the
    // main one, outside the 8-diagonal band around equal lengths.
    Rng rng(21);
    const Strand original = strand::random(rng, 120);
    const Strand read = original.substr(0, 10) + original.substr(35) +
        strand::random(rng, 25);
    ASSERT_EQ(read.size(), original.size());
    expectWidenedAndExact(original, read);
}

TEST(ProfileMsaBand, InsertionBlockForcesWideningAndMatchesReference)
{
    // The mirror image: 25 inserted bases early, 25 bases lost at the
    // end, so the true alignment runs 25 diagonals above the main one.
    Rng rng(23);
    const Strand original = strand::random(rng, 120);
    const Strand read = original.substr(0, 10) + strand::random(rng, 25) +
        original.substr(10, 85);
    ASSERT_EQ(read.size(), original.size());
    expectWidenedAndExact(original, read);
}

TEST(ProfileMsaBand, InBandReadsDoNotWiden)
{
    Rng rng(22);
    const Strand original = strand::random(rng, 150);
    const IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    ProfileMsa msa;
    const std::uint64_t before = widenings();
    for (int r = 0; r < 20; ++r)
        msa.addRead(channel.transmit(original, rng));
    EXPECT_EQ(widenings(), before);
    EXPECT_EQ(msa.consensus(150), original);
}

} // namespace
} // namespace dnastore
