/**
 * @file
 * Tests for the simulated sequencing-run driver.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>

#include "simulator/iid_channel.hh"
#include "simulator/markov_channel.hh"
#include "simulator/sequencing_run.hh"
#include "simulator/solqc_channel.hh"
#include "simulator/virtual_wetlab.hh"

namespace dnastore
{
namespace
{

std::vector<Strand>
makeStrands(Rng &rng, std::size_t count, std::size_t length)
{
    std::vector<Strand> strands;
    for (std::size_t i = 0; i < count; ++i)
        strands.push_back(strand::random(rng, length));
    return strands;
}

TEST(SequencingRun, FixedCoverageProducesExactReadCounts)
{
    Rng rng(1);
    const auto strands = makeStrands(rng, 50, 60);
    PerfectChannel channel;
    CoverageModel coverage(5.0);
    const auto run = simulateSequencing(strands, channel, coverage, rng);
    EXPECT_EQ(run.reads.size(), 250u);
    EXPECT_EQ(run.origin.size(), 250u);
    EXPECT_EQ(run.dropped_strands, 0u);

    std::map<std::uint32_t, int> counts;
    for (std::uint32_t o : run.origin)
        ++counts[o];
    EXPECT_EQ(counts.size(), 50u);
    for (const auto &[origin, count] : counts)
        EXPECT_EQ(count, 5);
}

TEST(SequencingRun, OriginMatchesContentWithPerfectChannel)
{
    Rng rng(2);
    const auto strands = makeStrands(rng, 30, 40);
    PerfectChannel channel;
    CoverageModel coverage(3.0);
    const auto run = simulateSequencing(strands, channel, coverage, rng);
    for (std::size_t i = 0; i < run.reads.size(); ++i)
        EXPECT_EQ(run.reads[i], strands[run.origin[i]]);
}

TEST(SequencingRun, ShuffleKeepsPairsTogether)
{
    Rng rng(3);
    const auto strands = makeStrands(rng, 20, 30);
    PerfectChannel channel;
    CoverageModel coverage(4.0);
    const auto shuffled =
        simulateSequencing(strands, channel, coverage, rng, true);
    // Even shuffled, each read must still equal its origin strand.
    for (std::size_t i = 0; i < shuffled.reads.size(); ++i)
        EXPECT_EQ(shuffled.reads[i], strands[shuffled.origin[i]]);
}

TEST(SequencingRun, NoShufflePreservesOrder)
{
    Rng rng(4);
    const auto strands = makeStrands(rng, 10, 30);
    PerfectChannel channel;
    CoverageModel coverage(2.0);
    const auto run =
        simulateSequencing(strands, channel, coverage, rng, false);
    for (std::size_t i = 0; i < run.origin.size(); ++i)
        EXPECT_EQ(run.origin[i], i / 2);
}

TEST(SequencingRun, DropoutCountsDroppedStrands)
{
    Rng rng(5);
    const auto strands = makeStrands(rng, 2000, 20);
    PerfectChannel channel;
    CoverageModel coverage(3.0, CoverageDistribution::Fixed, 0.3);
    const auto run = simulateSequencing(strands, channel, coverage, rng);
    EXPECT_NEAR(static_cast<double>(run.dropped_strands), 600.0, 80.0);
    EXPECT_EQ(run.reads.size(), (2000 - run.dropped_strands) * 3);
}

TEST(SequencingRun, EmptyInputYieldsEmptyRun)
{
    Rng rng(6);
    PerfectChannel channel;
    CoverageModel coverage(5.0);
    const auto run = simulateSequencing({}, channel, coverage, rng);
    EXPECT_TRUE(run.reads.empty());
    EXPECT_TRUE(run.origin.empty());
}

TEST(SequencingRun, StrandStreamsDoNotDependOnOtherStrands)
{
    // Strand s draws from its own stream, so removing the last strand
    // leaves every other strand's reads as they were (unshuffled).
    Rng rng(7);
    const auto strands = makeStrands(rng, 12, 50);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.1));
    CoverageModel coverage(6.0, CoverageDistribution::Poisson);
    Rng a(8);
    Rng b(8);
    const auto all = simulateSequencing(strands, channel, coverage, a, false);
    const std::vector<Strand> fewer(strands.begin(), strands.end() - 1);
    const auto part = simulateSequencing(fewer, channel, coverage, b, false);
    ASSERT_LE(part.reads.size(), all.reads.size());
    for (std::size_t i = 0; i < part.reads.size(); ++i) {
        EXPECT_EQ(part.reads[i], all.reads[i]);
        EXPECT_EQ(part.origin[i], all.origin[i]);
    }
}

/** One channel under test, built on demand (Markov needs fitting). */
struct ChannelCase
{
    const char *name;
    std::unique_ptr<Channel> (*make)();
};

// gtest prints a parameter it cannot format as its raw bytes, and the
// bytes of `name` are an address that moves with every process, so the
// case names listed to ctest would change from one build to the next.
void
PrintTo(const ChannelCase &c, std::ostream *os)
{
    *os << c.name;
}

class SequencingRunThreads : public ::testing::TestWithParam<ChannelCase>
{
};

TEST_P(SequencingRunThreads, SameRunAtEveryWidth)
{
    const std::unique_ptr<Channel> channel = GetParam().make();
    Rng strand_rng(9);
    const auto strands = makeStrands(strand_rng, 200, 60);
    const CoverageModel coverage(8.0, CoverageDistribution::Poisson, 0.05);

    const auto runAt = [&](std::size_t width) {
        Rng rng(10);
        return simulateSequencing(strands, *channel, coverage, rng, true,
                                  width);
    };
    const SequencingRun serial = runAt(1);
    ASSERT_GT(serial.reads.size(), 1000u);
    EXPECT_GT(serial.dropped_strands, 0u);
    for (std::size_t width : {2u, 4u}) {
        const SequencingRun parallel = runAt(width);
        EXPECT_EQ(parallel.reads, serial.reads) << "width " << width;
        EXPECT_EQ(parallel.origin, serial.origin) << "width " << width;
        EXPECT_EQ(parallel.dropped_strands, serial.dropped_strands)
            << "width " << width;
    }
}

std::unique_ptr<Channel>
makeMarkov()
{
    IidChannel teacher(IidChannelConfig::fromTotalErrorRate(0.08));
    Rng rng(11);
    std::vector<Strand> clean, noisy;
    for (int i = 0; i < 200; ++i) {
        clean.push_back(strand::random(rng, 60));
        noisy.push_back(teacher.transmit(clean.back(), rng));
    }
    return std::make_unique<MarkovChannel>(MarkovChannel::fit(clean, noisy));
}

INSTANTIATE_TEST_SUITE_P(
    Channels, SequencingRunThreads,
    ::testing::Values(
        ChannelCase{"Perfect",
                    []() -> std::unique_ptr<Channel> {
                        return std::make_unique<PerfectChannel>();
                    }},
        ChannelCase{"Iid",
                    []() -> std::unique_ptr<Channel> {
                        return std::make_unique<IidChannel>(
                            IidChannelConfig::fromTotalErrorRate(0.06));
                    }},
        ChannelCase{"Solqc",
                    []() -> std::unique_ptr<Channel> {
                        return std::make_unique<SolqcChannel>();
                    }},
        ChannelCase{"Markov", makeMarkov},
        ChannelCase{"VirtualWetlab",
                    []() -> std::unique_ptr<Channel> {
                        return std::make_unique<VirtualWetlabChannel>();
                    }}),
    [](const ::testing::TestParamInfo<ChannelCase> &param_info) {
        return std::string(param_info.param.name);
    });

} // namespace
} // namespace dnastore
