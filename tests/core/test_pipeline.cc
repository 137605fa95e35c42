/**
 * @file
 * Tests for the end-to-end pipeline wiring: module combinations,
 * latency accounting, ground-truth metrics and failure handling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "util/random.hh"

namespace dnastore
{
namespace
{

MatrixCodecConfig
testCodecConfig(LayoutScheme scheme = LayoutScheme::Baseline)
{
    MatrixCodecConfig cfg;
    cfg.payload_nt = 60; // 15 rows
    cfg.index_nt = 10;
    cfg.rs_n = 30;
    cfg.rs_k = 20;
    cfg.scheme = scheme;
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

TEST(Pipeline, MissingModulesReportedNotThrown)
{
    // The no-throw contract: a misconfigured pipeline reports its
    // problems through the error taxonomy instead of throwing.
    PipelineConfig cfg;
    Pipeline pipeline({}, cfg);

    PipelineResult result;
    EXPECT_NO_THROW(result = pipeline.run({1, 2, 3}));
    EXPECT_FALSE(result.report.ok);
    EXPECT_EQ(result.status.encoding, StageStatus::Failed);
    ASSERT_GE(result.errors.size(), 5u);
    EXPECT_NE(result.errors.front().message.find("missing module"),
              std::string::npos);

    EXPECT_NO_THROW(result = pipeline.runFromReads({}, 70));
    EXPECT_FALSE(result.report.ok);
    EXPECT_EQ(result.status.clustering, StageStatus::Failed);
    EXPECT_FALSE(result.errors.empty());
}

TEST(Pipeline, StageStatusNamesAreStable)
{
    EXPECT_STREQ(stageStatusName(StageStatus::Skipped), "skipped");
    EXPECT_STREQ(stageStatusName(StageStatus::Ok), "ok");
    EXPECT_STREQ(stageStatusName(StageStatus::Degraded), "degraded");
    EXPECT_STREQ(stageStatusName(StageStatus::Failed), "failed");
}

/** A decoder that always throws, for stage-boundary catch tests. */
class ThrowingDecoder : public FileDecoder
{
  public:
    DecodeReport
    decode(const std::vector<Strand> &, std::size_t) const override
    {
        throw std::runtime_error("decoder exploded");
    }
    std::string name() const override { return "throwing"; }
};

/** A reconstructor that throws on clusters of a given size. */
class FlakyReconstructor : public Reconstructor
{
  public:
    explicit FlakyReconstructor(std::size_t threshold)
        : fail_below(threshold)
    {
    }

    Strand
    reconstruct(const std::vector<Strand> &reads,
                std::size_t expected_length) const override
    {
        if (reads.size() < fail_below)
            throw std::runtime_error("cluster too thin: " + reads.front());
        return inner.reconstruct(reads, expected_length);
    }
    std::string name() const override { return "flaky"; }

  private:
    std::size_t fail_below;
    NwConsensusReconstructor inner;
};

TEST(Pipeline, ModuleExceptionsAreCaughtAtStageBoundaries)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    ThrowingDecoder decoder;
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    RashtchianClusterer clusterer({});
    DoubleSidedBmaReconstructor recon;
    PipelineConfig cfg;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(11);
    PipelineResult result;
    EXPECT_NO_THROW(result = pipeline.run(randomData(rng, 2000)));
    EXPECT_FALSE(result.report.ok);
    EXPECT_EQ(result.status.decoding, StageStatus::Failed);
    // Everything upstream of the broken stage still ran.
    EXPECT_EQ(result.status.encoding, StageStatus::Ok);
    EXPECT_EQ(result.status.clustering, StageStatus::Ok);
    ASSERT_FALSE(result.errors.empty());
    EXPECT_EQ(result.errors.front().stage, "decoding");
    EXPECT_NE(result.errors.front().message.find("decoder exploded"),
              std::string::npos);
}

TEST(Pipeline, FlakyReconstructorDegradesInsteadOfAborting)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    FlakyReconstructor recon(2); // throws on singleton clusters
    Rng rng(12);
    const auto data = randomData(rng, 3000);

    const auto runAt = [&](std::size_t threads) {
        RashtchianClusterer clusterer({});
        PipelineConfig cfg;
        cfg.coverage = CoverageModel(10.0, CoverageDistribution::Poisson);
        cfg.num_threads = threads;
        Pipeline pipeline(
            {&encoder, &decoder, &channel, &clusterer, &recon}, cfg);
        PipelineResult result;
        EXPECT_NO_THROW(result = pipeline.run(data));
        return result;
    };
    const PipelineResult serial = runAt(1);
    // Singleton clusters failed individually; the rest decoded fine.
    EXPECT_TRUE(serial.report.ok);
    EXPECT_EQ(serial.report.data, data);
    ASSERT_EQ(serial.errors.size(), 1u);
    EXPECT_EQ(serial.errors[0].stage, "reconstruction");
    EXPECT_EQ(serial.status.reconstruction, StageStatus::Degraded);

    // Salvaging is the same at any thread count: one error naming the
    // lowest-index failing cluster, and every cluster reconstructed once.
    const PipelineResult parallel = runAt(4);
    ASSERT_EQ(parallel.errors.size(), serial.errors.size());
    for (std::size_t i = 0; i < serial.errors.size(); ++i) {
        EXPECT_EQ(parallel.errors[i].stage, serial.errors[i].stage);
        EXPECT_EQ(parallel.errors[i].message, serial.errors[i].message);
    }
    const auto statuses = [](const StageStatusSet &s) {
        return std::vector<StageStatus>{s.encoding, s.simulation,
                                        s.clustering, s.reconstruction,
                                        s.decoding};
    };
    EXPECT_EQ(statuses(parallel.status), statuses(serial.status));
    EXPECT_EQ(parallel.report.ok, serial.report.ok);
    EXPECT_EQ(parallel.report.data, serial.report.data);
    EXPECT_EQ(parallel.metrics.counters.at("reconstruction.clusters_total"),
              serial.metrics.counters.at("reconstruction.clusters_total"));
}

TEST(Pipeline, RecoveryPolicyRetriesWithRelaxedClusterFilter)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    // Low coverage + aggressive filter: most clusters get discarded and
    // the first decode fails.
    cfg.coverage = CoverageModel(4.0, CoverageDistribution::Poisson);
    cfg.min_cluster_size = 4;
    cfg.max_decode_retries = 2;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(13);
    const auto data = randomData(rng, 3000);
    PipelineResult result;
    EXPECT_NO_THROW(result = pipeline.run(data));
    if (result.recovered) {
        EXPECT_TRUE(result.report.ok);
        EXPECT_EQ(result.report.data, data);
        EXPECT_FALSE(result.recovery_attempts.empty());
        EXPECT_EQ(result.status.decoding, StageStatus::Degraded);
    }
    // Whether or not recovery kicked in (the first decode may already
    // succeed on another platform), the attempt log must be bounded.
    EXPECT_LE(result.recovery_attempts.size(), cfg.max_decode_retries);
}

TEST(Pipeline, DroppedClustersAreCounted)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.05));
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    cfg.coverage = CoverageModel(8.0, CoverageDistribution::Poisson);
    cfg.min_cluster_size = 6; // guaranteed to shed some clusters
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(14);
    const auto result = pipeline.run(randomData(rng, 3000));
    EXPECT_GT(result.dropped_clusters, 0u);
    EXPECT_EQ(result.status.clustering, StageStatus::Degraded);
}

// gtest names each case after the raw bytes of its parameter.  The
// three bytes after `scheme` used to be uninitialised padding, so the
// case names changed from one process to the next; `name_bytes` fills
// that gap with the values the cases were first registered under, so
// every build lists the same names.  The bytes play no part in the test.
struct Combo
{
    LayoutScheme scheme;
    std::uint8_t name_bytes[3];
    SignatureKind signature;
    int reconstructor; // 0 = BMA, 1 = DBMA, 2 = NW
};
static_assert(std::has_unique_object_representations_v<Combo>,
              "Combo must have no padding, or case names are unstable");

class PipelineComboTest : public ::testing::TestWithParam<Combo>
{
};

TEST_P(PipelineComboTest, RoundTripsAFile)
{
    const Combo combo = GetParam();
    const auto codec_cfg = testCodecConfig(combo.scheme);
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.05));

    RashtchianClustererConfig clu_cfg;
    clu_cfg.signature = combo.signature;
    RashtchianClusterer clusterer(clu_cfg);

    BmaReconstructor bma;
    DoubleSidedBmaReconstructor dbma;
    NwConsensusReconstructor nw;
    const Reconstructor *recon = combo.reconstructor == 0
        ? static_cast<const Reconstructor *>(&bma)
        : combo.reconstructor == 1
            ? static_cast<const Reconstructor *>(&dbma)
            : static_cast<const Reconstructor *>(&nw);

    PipelineConfig cfg;
    cfg.coverage = CoverageModel(10.0, CoverageDistribution::Poisson);
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, recon},
                      cfg);

    Rng rng(77);
    const auto data = randomData(rng, 4000);
    const auto result = pipeline.run(data);
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, data);
    EXPECT_GT(result.encoded_strands, 0u);
    EXPECT_GT(result.reads, result.encoded_strands);
    EXPECT_GT(result.clustering_accuracy, 0.7);
    EXPECT_GT(result.perfect_reconstructions, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipelineComboTest,
    ::testing::Values(
        Combo{LayoutScheme::Baseline, {0xFF, 0x48, 0x00},
              SignatureKind::QGram, 0},
        Combo{LayoutScheme::Baseline, {0x00, 0xE0, 0xEF},
              SignatureKind::QGram, 1},
        Combo{LayoutScheme::Baseline, {0x00, 0x00, 0x00},
              SignatureKind::QGram, 2},
        Combo{LayoutScheme::Baseline, {0x00, 0x00, 0x00},
              SignatureKind::WGram, 1},
        Combo{LayoutScheme::Gini, {0x00, 0x01, 0x1B}, SignatureKind::QGram,
              1},
        Combo{LayoutScheme::Gini, {0x00, 0xC0, 0xCA}, SignatureKind::WGram,
              2},
        Combo{LayoutScheme::DNAMapper, {0xDA, 0x55, 0x00},
              SignatureKind::QGram, 1}));

TEST(Pipeline, LatencyCoversAllStages)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    RashtchianClusterer clusterer({});
    DoubleSidedBmaReconstructor recon;
    PipelineConfig cfg;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(5);
    const auto result = pipeline.run(randomData(rng, 2000));
    EXPECT_GT(result.latency.total(), 0.0);
    EXPECT_GE(result.latency.encoding, 0.0);
    EXPECT_GE(result.latency.clustering, 0.0);
    EXPECT_GE(result.latency.reconstruction, 0.0);
    EXPECT_GE(result.latency.decoding, 0.0);
}

TEST(Pipeline, ExtremeDropoutFailsGracefully)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    RashtchianClusterer clusterer({});
    DoubleSidedBmaReconstructor recon;
    PipelineConfig cfg;
    cfg.coverage = CoverageModel(2.0, CoverageDistribution::Fixed, 0.7);
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(6);
    const auto data = randomData(rng, 4000);
    const auto result = pipeline.run(data);
    // 70% molecule dropout is far beyond the erasure budget.
    EXPECT_FALSE(result.report.ok);
    EXPECT_GT(result.dropped_strands, 0u);
    EXPECT_GT(result.report.failed_rows, 0u);
}

TEST(Pipeline, MinClusterSizeFiltersJunk)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.05));
    RashtchianClusterer clusterer({});
    DoubleSidedBmaReconstructor recon;
    PipelineConfig cfg;
    cfg.coverage = CoverageModel(10.0);
    cfg.min_cluster_size = 2;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(7);
    const auto data = randomData(rng, 3000);
    const auto result = pipeline.run(data);
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, data);
}

TEST(Pipeline, RunFromReadsDecodesPreparedReads)
{
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.04));
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;

    Rng rng(8);
    const auto data = randomData(rng, 3000);
    const auto strands = encoder.encode(data);
    // Simulate sequencing outside the pipeline (e.g. real FASTQ data).
    std::vector<Strand> reads;
    for (const auto &s : strands)
        for (int c = 0; c < 8; ++c)
            reads.push_back(channel.transmit(s, rng));

    PipelineConfig cfg;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    const auto result = pipeline.runFromReads(
        reads, codec_cfg.strandLength(),
        encoder.unitsForSize(data.size()));
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, data);
}

} // namespace
} // namespace dnastore
