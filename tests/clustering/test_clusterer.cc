/**
 * @file
 * Tests for the Rashtchian-style distributed clusterer with q-gram and
 * w-gram signatures.
 */

#include <gtest/gtest.h>

#include "clustering/accuracy.hh"
#include "clustering/clusterer.hh"
#include "obs/metrics.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"

namespace dnastore
{
namespace
{

SequencingRun
makeWorkload(Rng &rng, std::size_t num_strands, double error_rate,
             double coverage)
{
    std::vector<Strand> strands;
    for (std::size_t i = 0; i < num_strands; ++i)
        strands.push_back(strand::random(rng, 130));
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(error_rate));
    CoverageModel cov(coverage, CoverageDistribution::Poisson);
    return simulateSequencing(strands, channel, cov, rng);
}

TEST(Clusterer, EmptyAndSingletonInputs)
{
    RashtchianClusterer clusterer({});
    EXPECT_EQ(clusterer.cluster({}).numClusters(), 0u);
    const auto single = clusterer.cluster({"ACGTACGT"});
    ASSERT_EQ(single.numClusters(), 1u);
    EXPECT_EQ(single.clusters[0], std::vector<std::uint32_t>{0});
}

TEST(Clusterer, TinyInputsAreCountedInMetrics)
{
    RashtchianClusterer clusterer({});
    clusterer.cluster({}); // registers the metrics before the snapshot
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    clusterer.cluster({});
    clusterer.cluster({"ACGTACGT"});
    const obs::MetricsSnapshot delta =
        obs::metrics().snapshot().delta(before);
    EXPECT_EQ(delta.counters.at("clustering.runs_total"), 2u);
    EXPECT_EQ(delta.counters.at("clustering.reads_total"), 1u);
    EXPECT_EQ(delta.counters.at("clustering.clusters_total"), 1u);
    EXPECT_EQ(delta.histograms.at("clustering.cluster_size_reads").total_count,
              1u);
}

TEST(Clusterer, PublishesTheThresholdsEachRunUsed)
{
    Rng rng(11);
    const auto run = makeWorkload(rng, 40, 0.06, 6.0);
    RashtchianClustererConfig fixed;
    fixed.theta_low = 3;
    fixed.theta_high = 21;
    RashtchianClusterer automatic({});
    RashtchianClusterer manual(fixed);
    automatic.cluster(run.reads); // registers the metrics first

    for (RashtchianClusterer *clusterer : {&automatic, &manual}) {
        const obs::MetricsSnapshot before = obs::metrics().snapshot();
        clusterer->cluster(run.reads);
        const RashtchianClusterer::Stats used = clusterer->stats();
        clusterer->cluster({"ACGTACGT"}); // sets no thresholds
        const obs::MetricsSnapshot delta =
            obs::metrics().snapshot().delta(before);
        const auto &low = delta.histograms.at("clustering.theta_low");
        const auto &high = delta.histograms.at("clustering.theta_high");
        EXPECT_EQ(low.total_count, 1u);
        EXPECT_EQ(high.total_count, 1u);
        EXPECT_EQ(low.sum, static_cast<double>(used.theta_low));
        EXPECT_EQ(high.sum, static_cast<double>(used.theta_high));
        if (clusterer == &manual) {
            EXPECT_EQ(used.theta_low, fixed.theta_low);
            EXPECT_EQ(used.theta_high, fixed.theta_high);
        }
    }
}

TEST(Clusterer, PerfectReadsClusterPerfectly)
{
    Rng rng(1);
    std::vector<Strand> strands;
    for (int i = 0; i < 100; ++i)
        strands.push_back(strand::random(rng, 130));
    PerfectChannel channel;
    CoverageModel coverage(5.0);
    const auto run = simulateSequencing(strands, channel, coverage, rng);

    RashtchianClusterer clusterer({});
    const auto clustering = clusterer.cluster(run.reads);
    EXPECT_DOUBLE_EQ(clusteringAccuracy(clustering, run.origin, 1.0), 1.0);
    EXPECT_EQ(clustering.numClusters(), 100u);
}

class ClustererKindTest : public ::testing::TestWithParam<SignatureKind>
{
};

TEST_P(ClustererKindTest, AccurateAtModerateError)
{
    Rng rng(2);
    const auto run = makeWorkload(rng, 400, 0.06, 10.0);
    auto cfg = RashtchianClustererConfig::forErrorRate(0.06, 130);
    cfg.signature = GetParam();
    RashtchianClusterer clusterer(cfg);
    const auto clustering = clusterer.cluster(run.reads);
    EXPECT_GT(clusteringAccuracy(clustering, run.origin, 0.9), 0.85)
        << signatureKindName(GetParam());
}

TEST_P(ClustererKindTest, StillAccurateAtHighError)
{
    // Table II reports ~0.98 accuracy even at 15% error; with the
    // error-adapted configuration the clusterer must stay well above
    // 0.8 on a smaller instance.
    Rng rng(3);
    const auto run = makeWorkload(rng, 200, 0.15, 10.0);
    auto cfg = RashtchianClustererConfig::forErrorRate(0.15, 130);
    cfg.signature = GetParam();
    RashtchianClusterer clusterer(cfg);
    const auto clustering = clusterer.cluster(run.reads);
    EXPECT_GT(clusteringAccuracy(clustering, run.origin, 0.8), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Signatures, ClustererKindTest,
                         ::testing::Values(SignatureKind::QGram,
                                           SignatureKind::WGram));

TEST(Clusterer, StatsAreConsistent)
{
    Rng rng(4);
    const auto run = makeWorkload(rng, 150, 0.06, 8.0);
    RashtchianClusterer clusterer({});
    clusterer.cluster(run.reads);
    const auto &stats = clusterer.stats();
    EXPECT_GT(stats.signature_comparisons, 0u);
    EXPECT_GT(stats.merges, 0u);
    EXPECT_LE(stats.edit_distance_calls, stats.signature_comparisons);
    EXPECT_EQ(stats.rounds_run, clusterer.config().rounds);
    EXPECT_GE(stats.theta_high, stats.theta_low);
    EXPECT_GE(stats.signature_seconds, 0.0);
}

TEST(Clusterer, ThresholdLogicAvoidsEditCalls)
{
    // With theta_low = theta_high - 1 = huge, everything merges on
    // signatures alone; with theta_high = 0 nothing merges.
    Rng rng(5);
    const auto run = makeWorkload(rng, 50, 0.03, 5.0);

    RashtchianClustererConfig merge_all;
    merge_all.theta_low = 1000000;
    merge_all.theta_high = 1000001;
    RashtchianClusterer greedy(merge_all);
    const auto merged = greedy.cluster(run.reads);
    EXPECT_EQ(greedy.stats().edit_distance_calls, 0u);
    EXPECT_LT(merged.numClusters(), 50u); // over-merged on purpose

    // theta_high = 0 disables both the signature-merge and the edit
    // check; only distance-0 signature pairs (near-identical reads at
    // this low error rate) may still merge via theta_low.
    RashtchianClustererConfig merge_none;
    merge_none.theta_low = 0;
    merge_none.theta_high = 0;
    RashtchianClusterer strict(merge_none);
    const auto singletons = strict.cluster(run.reads);
    EXPECT_EQ(strict.stats().edit_distance_calls, 0u);
    EXPECT_GE(singletons.numClusters(), 50u);
}

TEST(Clusterer, MultiThreadedMatchesQuality)
{
    Rng rng(6);
    const auto run = makeWorkload(rng, 200, 0.06, 8.0);
    RashtchianClustererConfig cfg;
    cfg.num_threads = 4;
    RashtchianClusterer clusterer(cfg);
    const auto clustering = clusterer.cluster(run.reads);
    EXPECT_GT(clusteringAccuracy(clustering, run.origin, 0.9), 0.85);
    // All reads are accounted for exactly once.
    std::size_t total = 0;
    for (const auto &c : clustering.clusters)
        total += c.size();
    EXPECT_EQ(total, run.reads.size());
}

TEST(Clusterer, ClustersPartitionReads)
{
    Rng rng(7);
    const auto run = makeWorkload(rng, 100, 0.09, 6.0);
    RashtchianClusterer clusterer({});
    const auto clustering = clusterer.cluster(run.reads);
    std::vector<bool> seen(run.reads.size(), false);
    for (const auto &cluster : clustering.clusters) {
        for (std::uint32_t idx : cluster) {
            ASSERT_LT(idx, run.reads.size());
            EXPECT_FALSE(seen[idx]);
            seen[idx] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Clusterer, ForErrorRateScalesEditThreshold)
{
    const auto low = RashtchianClustererConfig::forErrorRate(0.03, 130);
    const auto high = RashtchianClustererConfig::forErrorRate(0.15, 130);
    EXPECT_LT(low.edit_threshold, high.edit_threshold);
    // 2pL plus slack: at 15% on 130 nt two same-strand reads are ~39
    // edits apart on average.
    EXPECT_GE(high.edit_threshold, 45u);
    EXPECT_LE(high.edit_threshold, 75u);
    // High-error workloads get shorter keys and more rounds so clusters
    // still meet through corrupted anchor regions.
    EXPECT_LT(high.key_len, low.key_len);
    EXPECT_GT(high.rounds, low.rounds);
}

TEST(Clusterer, NameReflectsSignature)
{
    RashtchianClustererConfig cfg;
    EXPECT_EQ(RashtchianClusterer(cfg).name(), "rashtchian/q-gram");
    cfg.signature = SignatureKind::WGram;
    EXPECT_EQ(RashtchianClusterer(cfg).name(), "rashtchian/w-gram");
}

} // namespace
} // namespace dnastore
