/**
 * @file
 * Tests for the Needleman-Wunsch profile-MSA consensus reconstructor.
 */

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "reconstruction/reconstructor.hh"
#include "simulator/error_profile.hh"
#include "simulator/iid_channel.hh"
#include "simulator/virtual_wetlab.hh"

namespace dnastore
{
namespace
{

TEST(NwConsensus, CleanReadsReproduceExactly)
{
    Rng rng(1);
    const Strand s = strand::random(rng, 120);
    const std::vector<Strand> reads(6, s);
    NwConsensusReconstructor nw;
    EXPECT_EQ(nw.reconstruct(reads, 120), s);
}

TEST(NwConsensus, OutputLengthMatchesExpected)
{
    Rng rng(2);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.12));
    NwConsensusReconstructor nw;
    for (int trial = 0; trial < 20; ++trial) {
        const Strand s = strand::random(rng, 90);
        std::vector<Strand> reads;
        for (int c = 0; c < 8; ++c)
            reads.push_back(channel.transmit(s, rng));
        EXPECT_EQ(nw.reconstruct(reads, 90).size(), 90u);
    }
}

TEST(NwConsensus, EmptyClusterFallsBack)
{
    NwConsensusReconstructor nw;
    const Strand out = nw.reconstruct({}, 10);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_TRUE(strand::isValid(out));
}

TEST(NwConsensus, ClusterOfEmptyReadsFallsBack)
{
    NwConsensusReconstructor nw;
    const Strand out = nw.reconstruct({"", ""}, 10);
    EXPECT_EQ(out.size(), 10u);
}

TEST(NwConsensus, HighAccuracyAtModerateError)
{
    Rng rng(3);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    NwConsensusReconstructor nw;
    std::size_t perfect = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        const Strand s = strand::random(rng, 120);
        std::vector<Strand> reads;
        for (int c = 0; c < 10; ++c)
            reads.push_back(channel.transmit(s, rng));
        perfect += nw.reconstruct(reads, 120) == s;
    }
    EXPECT_GT(perfect, 280); // ~ matches Fig. 6's "NW is best" claim
}

TEST(NwConsensus, OutperformsBmaAtModerateError)
{
    Rng rng(4);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    NwConsensusReconstructor nw;
    BmaReconstructor bma;
    std::vector<Strand> originals, rec_nw, rec_bma;
    for (int t = 0; t < 250; ++t) {
        const Strand s = strand::random(rng, 120);
        originals.push_back(s);
        std::vector<Strand> reads;
        for (int c = 0; c < 10; ++c)
            reads.push_back(channel.transmit(s, rng));
        rec_nw.push_back(nw.reconstruct(reads, 120));
        rec_bma.push_back(bma.reconstruct(reads, 120));
    }
    const auto p_nw = measureReconstruction(originals, rec_nw);
    const auto p_bma = measureReconstruction(originals, rec_bma);
    EXPECT_GT(p_nw.perfect_strands, p_bma.perfect_strands);
}

TEST(NwConsensus, ReadCapKeepsQuality)
{
    Rng rng(5);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    NwConsensusConfig cfg;
    cfg.max_reads = 12;
    NwConsensusReconstructor capped(cfg);
    std::size_t perfect = 0;
    for (int t = 0; t < 100; ++t) {
        const Strand s = strand::random(rng, 100);
        std::vector<Strand> reads;
        for (int c = 0; c < 50; ++c) // coverage 50, cap at 12
            reads.push_back(channel.transmit(s, rng));
        perfect += capped.reconstruct(reads, 100) == s;
    }
    EXPECT_GT(perfect, 90u);
}

TEST(NwConsensus, RefinePassesDoNotHurt)
{
    Rng rng(7);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.09));
    NwConsensusConfig plain_cfg;
    plain_cfg.refine_passes = 0;
    NwConsensusConfig refined_cfg;
    refined_cfg.refine_passes = 2;
    NwConsensusReconstructor plain(plain_cfg);
    NwConsensusReconstructor refined(refined_cfg);
    std::size_t plain_perfect = 0, refined_perfect = 0;
    for (int t = 0; t < 120; ++t) {
        const Strand s = strand::random(rng, 100);
        std::vector<Strand> reads;
        for (int c = 0; c < 8; ++c)
            reads.push_back(channel.transmit(s, rng));
        plain_perfect += plain.reconstruct(reads, 100) == s;
        refined_perfect += refined.reconstruct(reads, 100) == s;
    }
    EXPECT_GE(refined_perfect + 5, plain_perfect);
}

TEST(NwConsensus, SingleNoisyReadIsBestEffort)
{
    Rng rng(6);
    const Strand s = strand::random(rng, 60);
    NwConsensusReconstructor nw;
    const Strand out = nw.reconstruct({s}, 60);
    EXPECT_EQ(out, s);
}

TEST(NwConsensusThreads, ReconstructAllIdenticalAcrossThreadCounts)
{
    // Each reconstruct call owns its ProfileMsa and the scratch buffers
    // inside it, so the thread count cannot change a single base.  The
    // noisy wetlab channel makes some reads widen past the band.
    Rng rng(8);
    VirtualWetlabConfig cfg;
    cfg.base_error_rate = 0.10;
    const VirtualWetlabChannel channel(cfg);
    std::vector<std::vector<Strand>> clusters;
    for (int c = 0; c < 48; ++c) {
        const Strand s = strand::random(rng, 120);
        std::vector<Strand> reads;
        for (int r = 0; r < 20; ++r)
            reads.push_back(channel.transmit(s, rng));
        clusters.push_back(std::move(reads));
    }
    NwConsensusReconstructor nw;
    const auto serial = reconstructAll(nw, clusters, 120, 1);
    EXPECT_EQ(reconstructAll(nw, clusters, 120, 2), serial);
    EXPECT_EQ(reconstructAll(nw, clusters, 120, 4), serial);
}

TEST(NwConsensusThreads, OneClusterBuildsNoPool)
{
    // min(threads, clusters) <= 1: the batch runs on the caller, so no
    // pool task is queued however many threads were asked for.
    Rng rng(9);
    const Strand s = strand::random(rng, 120);
    const std::vector<std::vector<Strand>> clusters{{s, s, s}};
    obs::Counter &tasks =
        obs::metrics().counter("util.thread_pool.tasks_total");
    const std::uint64_t before = tasks.value();
    NwConsensusReconstructor nw;
    EXPECT_EQ(reconstructAll(nw, clusters, 120, 4),
              (std::vector<Strand>{s}));
    EXPECT_EQ(tasks.value(), before);
}

} // namespace
} // namespace dnastore
