/**
 * @file
 * Tests for automatic threshold configuration (paper Fig. 5).
 */

#include <gtest/gtest.h>

#include "clustering/auto_threshold.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"

namespace dnastore
{
namespace
{

TEST(AutoThreshold, TooFewReadsThrows)
{
    Rng rng(1);
    SignatureScheme scheme(SignatureKind::QGram, rng, 4, 40);
    EXPECT_THROW(autoConfigureThresholds({"ACGT"}, scheme, rng),
                 std::invalid_argument);
}

TEST(AutoThreshold, ThresholdsAreOrdered)
{
    Rng rng(2);
    SignatureScheme scheme(SignatureKind::QGram, rng, 4, 60);
    std::vector<Strand> reads;
    for (int i = 0; i < 300; ++i)
        reads.push_back(strand::random(rng, 130));
    const auto thresholds = autoConfigureThresholds(reads, scheme, rng);
    EXPECT_LT(thresholds.low, thresholds.high);
    EXPECT_GE(thresholds.low, 0);
}

TEST(AutoThreshold, SeparatesIntraFromInterOnClusteredData)
{
    Rng rng(3);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    CoverageModel coverage(10.0);
    std::vector<Strand> strands;
    for (int i = 0; i < 200; ++i)
        strands.push_back(strand::random(rng, 130));
    const auto run = simulateSequencing(strands, channel, coverage, rng);

    SignatureScheme scheme(SignatureKind::QGram, rng, 4, 60);
    const auto thresholds =
        autoConfigureThresholds(run.reads, scheme, rng);

    // Measure classification quality of the chosen thresholds.
    SignatureTable sigs(scheme, run.reads.size());
    for (std::size_t i = 0; i < run.reads.size(); ++i)
        sigs.compute(i, run.reads[i]);
    std::size_t intra_below_high = 0, intra_total = 0;
    std::size_t inter_above_low = 0, inter_total = 0;
    for (int t = 0; t < 500; ++t) {
        const std::size_t i = rng.below(run.reads.size());
        const std::size_t j = rng.below(run.reads.size());
        if (i == j)
            continue;
        const auto d = sigs.distance(i, j);
        if (run.origin[i] == run.origin[j]) {
            ++intra_total;
            intra_below_high += d < thresholds.high;
        } else {
            ++inter_total;
            inter_above_low += d > thresholds.low;
        }
    }
    ASSERT_GT(inter_total, 100u);
    // Nearly all unrelated pairs must sit above theta_low (no blind
    // merges of unrelated clusters).
    EXPECT_GT(static_cast<double>(inter_above_low) /
                  static_cast<double>(inter_total),
              0.99);
    if (intra_total > 10) {
        // Most same-cluster pairs fall below theta_high, so they at
        // least reach the edit-distance check.
        EXPECT_GT(static_cast<double>(intra_below_high) /
                      static_cast<double>(intra_total),
                  0.8);
    }
}

TEST(AutoThreshold, HistogramIsPopulated)
{
    Rng rng(4);
    SignatureScheme scheme(SignatureKind::QGram, rng, 4, 40);
    std::vector<Strand> reads;
    for (int i = 0; i < 100; ++i)
        reads.push_back(strand::random(rng, 100));
    AutoThresholdConfig cfg;
    cfg.small_sample = 10;
    cfg.large_sample = 50;
    const auto thresholds =
        autoConfigureThresholds(reads, scheme, rng, cfg);
    EXPECT_GT(thresholds.histogram.totalCount(), 100u);
    EXPECT_GT(thresholds.main_peak, 0);
}

TEST(AutoThreshold, WorksForWGramSignatures)
{
    Rng rng(5);
    SignatureScheme scheme(SignatureKind::WGram, rng, 4, 40);
    std::vector<Strand> reads;
    for (int i = 0; i < 200; ++i)
        reads.push_back(strand::random(rng, 120));
    const auto thresholds = autoConfigureThresholds(reads, scheme, rng);
    EXPECT_LT(thresholds.low, thresholds.high);
}

} // namespace
} // namespace dnastore
