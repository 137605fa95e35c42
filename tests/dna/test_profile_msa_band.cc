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

TEST(ProfileMsaBand, MatchesFullDpReferenceOnSeededClusters)
{
    VirtualWetlabConfig wetlab_cfg;
    std::size_t clusters = 0, reads = 0;
    const std::uint64_t widenings_before = widenings();
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
    std::cout << reads << " reads in " << clusters << " clusters, "
              << widenings() - widenings_before << " widened\n";
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
