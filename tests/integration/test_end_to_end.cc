/**
 * @file
 * Full-system integration tests: multiple files in one pool, PCR random
 * access, wetlab-style FASTQ handling, the complete storage round trip
 * under realistic noise, and AddressSanitizer's new/delete pairing
 * check in a binary that links the whole pipeline.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "core/pool.hh"
#include "dna/fastx.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "simulator/virtual_wetlab.hh"
#include "wetlab/preprocess.hh"

#if defined(__SANITIZE_ADDRESS__)
#define DNASTORE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DNASTORE_TEST_ASAN 1
#endif
#endif

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
    cfg.rs_k = 28;
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
 * Store two files in one pool, PCR-amplify one of them, sequence it
 * through a noisy channel in both orientations, preprocess, and run the
 * retrieval half of the pipeline.
 */
TEST(EndToEnd, RandomAccessRetrievalFromSharedPool)
{
    Rng rng(101);
    const auto codec_cfg = codecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);

    const auto lib = PrimerLibrary::design(rng, 4);
    const auto key_a = lib.pairFor(0);
    const auto key_b = lib.pairFor(1);

    const auto file_a = randomData(rng, 3000);
    const auto file_b = randomData(rng, 2000);

    DnaPool pool;
    pool.store(0, key_a, encoder.encode(file_a));
    pool.store(1, key_b, encoder.encode(file_b));

    // Random access: amplify file A only.
    const auto product = amplify(pool, 0, rng);
    ASSERT_EQ(product.on_target,
              encoder.unitsForSize(file_a.size()) * codec_cfg.rs_n);

    // Sequence with noise; half the reads come out reverse-oriented.
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.04));
    CoverageModel coverage(12.0, CoverageDistribution::Poisson);
    auto run = simulateSequencing(product.molecules, channel, coverage, rng);
    for (std::size_t i = 0; i < run.reads.size(); i += 2)
        run.reads[i] = strand::reverseComplement(run.reads[i]);

    // Wetlab preprocessing: orientation + primer trimming.
    WetlabPreprocessConfig pre_cfg;
    pre_cfg.primer_max_edit = 5;
    const auto pre = preprocessReads(run.reads, key_a, pre_cfg);
    EXPECT_GT(pre.reads.size(), run.reads.size() * 9 / 10);
    EXPECT_GT(pre.flipped, 0u);

    // Retrieval half of the pipeline.
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    const auto result = pipeline.runFromReads(
        pre.reads, codec_cfg.strandLength(),
        encoder.unitsForSize(file_a.size()));
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, file_a);
}

TEST(EndToEnd, FastqInterchangeRoundTrip)
{
    Rng rng(102);
    const auto codec_cfg = codecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    const auto lib = PrimerLibrary::design(rng, 2);
    const auto key = lib.pairFor(0);

    const auto data = randomData(rng, 1500);
    DnaPool pool;
    pool.store(0, key, encoder.encode(data));

    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    CoverageModel coverage(10.0);
    const auto run =
        simulateSequencing(pool.section(0), channel, coverage, rng);

    // Serialise through FASTQ text (as a sequencer hands data over).
    std::stringstream fastq_stream;
    writeFastq(fastq_stream, readsToFastq(run.reads, "nanopore"));
    const auto records = readFastq(fastq_stream);
    ASSERT_EQ(records.size(), run.reads.size());

    const auto pre = preprocessFastq(records, key, {5});
    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    const auto result = pipeline.runFromReads(
        pre.reads, codec_cfg.strandLength(),
        encoder.unitsForSize(data.size()));
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, data);
}

TEST(EndToEnd, SurvivesVirtualWetlabAtHighCoverage)
{
    // The hidden reference channel is much nastier than the iid model;
    // with enough coverage and the NW reconstructor the system must
    // still recover the file.
    Rng rng(103);
    MatrixCodecConfig codec_cfg = codecConfig();
    codec_cfg.rs_k = 24; // more parity for the nastier channel
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    VirtualWetlabConfig channel_cfg;
    channel_cfg.base_error_rate = 0.04;
    VirtualWetlabChannel channel(channel_cfg);
    RashtchianClustererConfig clu_cfg;
    clu_cfg.edit_threshold = 35;
    RashtchianClusterer clusterer(clu_cfg);
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    cfg.coverage = CoverageModel(20.0, CoverageDistribution::LogNormalSkew);
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    const auto data = randomData(rng, 2500);
    const auto result = pipeline.run(data);
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, data);
}

TEST(EndToEnd, ContaminatedPcrStillDecodes)
{
    // Off-target molecules leak into the amplified product; their
    // indices belong to the same index space, but clustering keeps them
    // in separate clusters and RS absorbs the stray columns.
    Rng rng(104);
    const auto codec_cfg = codecConfig();
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    const auto lib = PrimerLibrary::design(rng, 4);

    const auto file_a = randomData(rng, 2000);
    const auto file_b = randomData(rng, 2000);
    DnaPool pool;
    pool.store(0, lib.pairFor(0), encoder.encode(file_a));
    pool.store(1, lib.pairFor(1), encoder.encode(file_b));

    PcrConfig pcr;
    pcr.off_target_rate = 0.02;
    const auto product = amplify(pool, 0, rng, pcr);

    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    CoverageModel coverage(10.0);
    const auto run = simulateSequencing(product.molecules, channel,
                                        coverage, rng);
    const auto pre = preprocessReads(run.reads, lib.pairFor(0), {4});

    RashtchianClusterer clusterer({});
    NwConsensusReconstructor recon;
    PipelineConfig cfg;
    Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                      cfg);
    const auto result = pipeline.runFromReads(
        pre.reads, codec_cfg.strandLength(),
        encoder.unitsForSize(file_a.size()));
    EXPECT_TRUE(result.report.ok);
    EXPECT_EQ(result.report.data, file_a);
}

#if defined(DNASTORE_TEST_ASAN)
// Volatile round trips hide both the size and the pointer's origin, so
// the optimiser can neither elide the pair nor diagnose it statically.
volatile std::size_t g_count = 4;
int *volatile g_block = nullptr;

void
freeArrayWithScalarDelete()
{
    g_block = new int[g_count];
    int *const block = g_block;
    delete block; // deliberately mismatched: allocated with new[]
}
#endif

// The pipeline's binaries use the default global operator new/delete.
// A replacement that sends both to malloc/free hides which form
// allocated a block, and ASan then lets a mismatched delete pass.
TEST(AllocatorDeathTest, AsanReportsArrayNewFreedWithScalarDelete)
{
#if defined(DNASTORE_TEST_ASAN)
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(freeArrayWithScalarDelete(), "alloc-dealloc-mismatch");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

} // namespace
} // namespace dnastore
