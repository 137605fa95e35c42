/**
 * @file
 * Fault-matrix integration tests: every FaultPlan knob alone at a
 * moderate rate must leave the pipeline both alive (no exception
 * escapes run()) and correct (report.ok, bit-exact data), and the
 * combined acceptance scenario from the robustness issue must recover
 * the input at default RS parity.
 */

#include <gtest/gtest.h>

#include "codec/matrix_codec.hh"
#include "core/fault.hh"
#include "core/pipeline.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"

namespace dnastore
{
namespace
{

MatrixCodecConfig
codecConfig()
{
    MatrixCodecConfig cfg;
    cfg.payload_nt = 80; // 20 rows
    cfg.index_nt = 10;
    cfg.rs_n = 40;
    cfg.rs_k = 28; // default parity: 12 erasure columns of 40
    return cfg;
}

std::vector<std::uint8_t>
randomData(Rng &rng, std::size_t size)
{
    std::vector<std::uint8_t> data(size);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

/**
 * Run the full pipeline @p runs times, on one Pipeline, with the given
 * fault plan; never throws.
 */
std::vector<PipelineResult>
repeatedRuns(FaultPlan plan, std::size_t runs)
{
    const auto codec_cfg = codecConfig();
    plan.index_nt = codec_cfg.index_nt;

    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.02));
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;

    PipelineModules mods;
    mods.encoder = &encoder;
    mods.decoder = &decoder;
    mods.channel = &channel;
    mods.clusterer = &clusterer;
    mods.reconstructor = &recon;

    PipelineConfig cfg;
    cfg.coverage = CoverageModel(12.0);
    // Junk products of truncation/duplication drift into singleton
    // clusters; the standard min-size filter screens them out.
    cfg.min_cluster_size = 2;
    cfg.faults = plan;
    Pipeline pipeline(mods, cfg);

    Rng rng(42);
    const auto data = randomData(rng, 2000);
    std::vector<PipelineResult> results(runs);
    for (PipelineResult &result : results) {
        EXPECT_NO_THROW(result = pipeline.run(data));
        if (result.report.ok) {
            EXPECT_EQ(result.report.data, data);
        }
    }
    return results;
}

/** One run of the full pipeline with the given fault plan. */
PipelineResult
runWithFaults(const FaultPlan &plan)
{
    return repeatedRuns(plan, 1).front();
}

TEST(FaultMatrix, StrandDropoutAlone)
{
    FaultPlan plan;
    plan.strand_dropout = 0.10;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.dropped_strands, 0u);
    EXPECT_EQ(result.status.encoding, StageStatus::Degraded);
}

TEST(FaultMatrix, ReadTruncationAlone)
{
    FaultPlan plan;
    plan.read_truncation = 0.05;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.truncated_reads, 0u);
}

TEST(FaultMatrix, ReadElongationAlone)
{
    FaultPlan plan;
    plan.read_elongation = 0.05;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.elongated_reads, 0u);
}

TEST(FaultMatrix, IndexCorruptionAlone)
{
    FaultPlan plan;
    plan.index_corruption = 0.02;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.corrupted_indices, 0u);
}

TEST(FaultMatrix, DuplicateConflictAlone)
{
    FaultPlan plan;
    plan.duplicate_conflict = 0.03;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.duplicate_conflicts, 0u);
}

TEST(FaultMatrix, GarbageReadsAlone)
{
    FaultPlan plan;
    plan.garbage_read = 0.05;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.garbage_reads, 0u);
    // Garbage that is non-ACGT is filtered before clustering.
    EXPECT_GT(result.malformed_reads, 0u);
}

TEST(FaultMatrix, ClusterDropAlone)
{
    FaultPlan plan;
    plan.cluster_drop = 0.05;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.emptied_clusters, 0u);
}

TEST(FaultMatrix, ClusterMergeAlone)
{
    FaultPlan plan;
    plan.cluster_merge = 0.03;
    const auto result = runWithFaults(plan);
    EXPECT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.merged_clusters, 0u);
}

TEST(FaultMatrix, AcceptanceScenarioCombinedFaults)
{
    // The issue's acceptance bar: 10% strand dropout + 2% read
    // truncation + 1% index corruption, seeded, baseline codec at
    // default RS parity -> bit-exact recovery.
    FaultPlan plan;
    plan.strand_dropout = 0.10;
    plan.read_truncation = 0.02;
    plan.index_corruption = 0.01;
    const auto result = runWithFaults(plan);
    ASSERT_TRUE(result.report.ok);
    EXPECT_GT(result.faults.dropped_strands, 0u);
    EXPECT_GT(result.faults.truncated_reads, 0u);
    EXPECT_GT(result.faults.corrupted_indices, 0u);
    EXPECT_FALSE(result.status.anyFailed());
}

TEST(FaultMatrix, SameSeedGivesIdenticalOutcome)
{
    FaultPlan plan;
    plan.strand_dropout = 0.10;
    plan.read_truncation = 0.02;
    const auto a = runWithFaults(plan);
    const auto b = runWithFaults(plan);
    EXPECT_EQ(a.report.ok, b.report.ok);
    EXPECT_EQ(a.faults.dropped_strands, b.faults.dropped_strands);
    EXPECT_EQ(a.faults.truncated_reads, b.faults.truncated_reads);
    EXPECT_EQ(a.reads, b.reads);
}

TEST(FaultMatrix, RepeatedRunsReportPerRunCounters)
{
    // Every run builds its own injector from the plan, so a reused
    // Pipeline reports each run's faults, not a running total.
    FaultPlan plan;
    plan.strand_dropout = 0.10;
    const PipelineResult fresh = runWithFaults(plan);
    ASSERT_GT(fresh.faults.dropped_strands, 0u);
    const auto runs = repeatedRuns(plan, 2);
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_TRUE(runs[i].faults == fresh.faults) << "run " << i;
}

TEST(FaultMatrix, EverythingAtOnceNeverThrows)
{
    // All knobs on at punishing rates: correctness is not required, but
    // the no-throw contract and a coherent result are.
    FaultPlan plan;
    plan.strand_dropout = 0.3;
    plan.read_truncation = 0.2;
    plan.read_elongation = 0.2;
    plan.index_corruption = 0.2;
    plan.duplicate_conflict = 0.2;
    plan.garbage_read = 0.2;
    plan.cluster_drop = 0.2;
    plan.cluster_merge = 0.2;

    const auto codec_cfg = codecConfig();
    plan.index_nt = codec_cfg.index_nt;
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.02));
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;
    NwConsensusReconstructor fallback;

    PipelineModules mods;
    mods.encoder = &encoder;
    mods.decoder = &decoder;
    mods.channel = &channel;
    mods.clusterer = &clusterer;
    mods.reconstructor = &recon;
    mods.fallback_reconstructor = &fallback;

    PipelineConfig cfg;
    cfg.coverage = CoverageModel(8.0);
    cfg.max_decode_retries = 2;
    cfg.faults = plan;
    Pipeline pipeline(mods, cfg);

    Rng rng(7);
    const auto data = randomData(rng, 1000);
    PipelineResult result;
    EXPECT_NO_THROW(result = pipeline.run(data));
    EXPECT_GT(result.faults.total(), 0u);
    // Whatever happened, the taxonomy must be internally consistent.
    if (!result.report.ok) {
        EXPECT_NE(result.status.decoding, StageStatus::Ok);
    }
}

} // namespace
} // namespace dnastore
