/**
 * @file
 * Tests for the end-to-end pipeline wiring: module combinations,
 * latency accounting, ground-truth metrics and failure handling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
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

    // Ten reads of every strand, plus one unrelated strand: a singleton
    // cluster whatever the channel draws.
    const std::vector<Strand> encoded = encoder.encode(data);
    std::vector<Strand> reads =
        simulateSequencing(encoded, channel, CoverageModel(10.0), rng).reads;
    const Strand junk = strand::random(rng, encoded.front().size());
    reads.push_back(junk);

    const auto runAt = [&](std::size_t threads) {
        RashtchianClusterer clusterer({});
        PipelineConfig cfg;
        cfg.num_threads = threads;
        Pipeline pipeline(
            {&encoder, &decoder, &channel, &clusterer, &recon}, cfg);
        PipelineResult result;
        EXPECT_NO_THROW(result = pipeline.runFromReads(
                            reads, encoded.front().size(),
                            encoder.unitsForSize(data.size())));
        return result;
    };
    const PipelineResult serial = runAt(1);
    // Singleton clusters failed individually; the rest decoded fine.
    EXPECT_TRUE(serial.report.ok);
    EXPECT_EQ(serial.report.data, data);
    ASSERT_EQ(serial.errors.size(), 1u);
    EXPECT_EQ(serial.errors[0].stage, "reconstruction");
    EXPECT_NE(serial.errors[0].message.find("cluster too thin"),
              std::string::npos);
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

/** Splits the first cluster of an inner clusterer into two halves. */
class SplittingClusterer : public Clusterer
{
  public:
    Clustering
    cluster(const std::vector<Strand> &reads) override
    {
        Clustering out = inner.cluster(reads);
        std::vector<std::uint32_t> &first = out.clusters.front();
        const auto half = first.begin() + static_cast<std::ptrdiff_t>(
                                              first.size() / 2);
        std::vector<std::uint32_t> second(half, first.end());
        first.erase(half, first.end());
        out.clusters.push_back(std::move(second));
        return out;
    }
    std::string name() const override { return "splitting"; }

  private:
    RashtchianClusterer inner{{}};
};

TEST(Pipeline, SplitClusterCountsItsStrandOnce)
{
    // Both halves of a split cluster reconstruct their strand exactly;
    // the strand still counts once towards perfect_reconstructions.
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    PerfectChannel channel;
    SplittingClusterer clusterer;
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    cfg.coverage = CoverageModel(6.0);
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(15);
    const auto result = pipeline.run(randomData(rng, 2000));
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.clusters, result.encoded_strands + 1);
    EXPECT_DOUBLE_EQ(result.perfect_reconstructions, 1.0);
}

/** Clusters like RashtchianClusterer, plus one index past the reads. */
class OutOfRangeClusterer : public Clusterer
{
  public:
    Clustering
    cluster(const std::vector<Strand> &reads) override
    {
        Clustering out = inner.cluster(reads);
        out.clusters.front().push_back(
            static_cast<std::uint32_t>(reads.size()));
        return out;
    }
    std::string name() const override { return "out-of-range"; }

  private:
    RashtchianClusterer inner{{}};
};

TEST(Pipeline, OutOfRangeClusterIndexFallsBackToSingletons)
{
    // An index >= reads.size() is a clustering failure: recorded, then
    // every read becomes its own cluster and the decode still succeeds.
    const auto codec_cfg = testCodecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    PerfectChannel channel;
    OutOfRangeClusterer clusterer;
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    cfg.coverage = CoverageModel(3.0);
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    Rng rng(16);
    const auto data = randomData(rng, 2000);
    PipelineResult result;
    EXPECT_NO_THROW(result = pipeline.run(data));
    EXPECT_EQ(result.status.clustering, StageStatus::Failed);
    ASSERT_FALSE(result.errors.empty());
    EXPECT_EQ(result.errors.front().stage, "clustering");
    EXPECT_NE(result.errors.front().message.find("out of range"),
              std::string::npos);
    EXPECT_EQ(result.clusters, result.reads);
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, data);
}

/** One Table III module combination. */
struct Table3Combo
{
    const char *name;
    SignatureKind signature;
    int reconstructor; // 0 = BMA, 1 = DBMA, 2 = NW
    double coverage;
};

// gtest prints a parameter it cannot format as its raw bytes, and the
// bytes of `name` are an address that moves with every process, so the
// case names listed to ctest would change from one build to the next.
void
PrintTo(const Table3Combo &c, std::ostream *os)
{
    *os << c.name;
}

class PipelineThreads : public ::testing::TestWithParam<Table3Combo>
{
};

TEST_P(PipelineThreads, SameResultAtEveryWidth)
{
    // The Table III setup (payload 120 nt, index 12 nt, RS(60,40), 6%
    // i.i.d. errors, Poisson coverage, min_cluster_size 2) on a small
    // file: simulation, clustering and reconstruction all run at the
    // width, and the run must not depend on it.
    const Table3Combo combo = GetParam();
    MatrixCodecConfig codec_cfg;
    codec_cfg.payload_nt = 120;
    codec_cfg.index_nt = 12;
    codec_cfg.rs_n = 60;
    codec_cfg.rs_k = 40;
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    BmaReconstructor bma;
    DoubleSidedBmaReconstructor dbma;
    NwConsensusReconstructor nw;
    const std::vector<const Reconstructor *> recons{&bma, &dbma, &nw};
    Rng rng(3333);
    const auto data = randomData(rng, 1500);

    const auto runAt = [&](std::size_t width) {
        auto clu_cfg =
            RashtchianClustererConfig::forErrorRate(0.06,
                                                    codec_cfg.strandLength());
        clu_cfg.signature = combo.signature;
        clu_cfg.num_threads = width;
        RashtchianClusterer clusterer(clu_cfg);
        PipelineConfig cfg;
        cfg.coverage =
            CoverageModel(combo.coverage, CoverageDistribution::Poisson);
        cfg.seed = 7;
        cfg.min_cluster_size = 2;
        cfg.num_threads = width;
        Pipeline pipeline({&encoder, &decoder, &channel, &clusterer,
                           recons[static_cast<std::size_t>(
                               combo.reconstructor)]},
                          cfg);
        return pipeline.run(data);
    };
    // Registry counters, less the thread pool's own bookkeeping.
    const auto counters = [](const PipelineResult &result) {
        std::map<std::string, std::uint64_t> out;
        for (const auto &[name, value] : result.metrics.counters)
            if (name.rfind("util.", 0) != 0)
                out[name] = value;
        return out;
    };

    const PipelineResult serial = runAt(1);
    ASSERT_TRUE(serial.report.ok);
    EXPECT_EQ(serial.report.data, data);
    for (std::size_t width : {2u, 4u}) {
        const PipelineResult parallel = runAt(width);
        EXPECT_EQ(parallel.report.ok, serial.report.ok) << width;
        EXPECT_EQ(parallel.report.data, serial.report.data) << width;
        EXPECT_EQ(parallel.report.failed_rows, serial.report.failed_rows)
            << width;
        EXPECT_EQ(parallel.reads, serial.reads) << width;
        EXPECT_EQ(parallel.clusters, serial.clusters) << width;
        EXPECT_EQ(parallel.dropped_strands, serial.dropped_strands) << width;
        EXPECT_EQ(parallel.dropped_clusters, serial.dropped_clusters)
            << width;
        EXPECT_EQ(parallel.clustering_accuracy, serial.clustering_accuracy)
            << width;
        EXPECT_EQ(parallel.perfect_reconstructions,
                  serial.perfect_reconstructions)
            << width;
        EXPECT_EQ(counters(parallel), counters(serial)) << width;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table3, PipelineThreads,
    ::testing::Values(
        Table3Combo{"QGramBmaCov10", SignatureKind::QGram, 0, 10.0},
        Table3Combo{"QGramDbmaCov10", SignatureKind::QGram, 1, 10.0},
        Table3Combo{"QGramNwaCov10", SignatureKind::QGram, 2, 10.0},
        Table3Combo{"WGramBmaCov10", SignatureKind::WGram, 0, 10.0},
        Table3Combo{"WGramDbmaCov10", SignatureKind::WGram, 1, 10.0},
        Table3Combo{"WGramNwaCov10", SignatureKind::WGram, 2, 10.0},
        Table3Combo{"QGramBmaCov50", SignatureKind::QGram, 0, 50.0},
        Table3Combo{"QGramDbmaCov50", SignatureKind::QGram, 1, 50.0},
        Table3Combo{"QGramNwaCov50", SignatureKind::QGram, 2, 50.0},
        Table3Combo{"WGramBmaCov50", SignatureKind::WGram, 0, 50.0},
        Table3Combo{"WGramDbmaCov50", SignatureKind::WGram, 1, 50.0},
        Table3Combo{"WGramNwaCov50", SignatureKind::WGram, 2, 50.0}),
    [](const ::testing::TestParamInfo<Table3Combo> &param_info) {
        return std::string(param_info.param.name);
    });

} // namespace
} // namespace dnastore
