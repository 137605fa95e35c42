/**
 * @file
 * Handling real sequencer output (paper Section VIII).
 *
 * The wetlab path of the toolkit replaces the simulation module with
 * FASTQ data from an actual sequencing run.  This example emulates that
 * flow end to end:
 *
 *   1. a file is encoded and "synthesized" with primers into molecules;
 *   2. the virtual wetlab channel plays the role of the sequencer and a
 *      FASTQ file is written to disk (both strand orientations, skewed
 *      coverage, complex noise);
 *   3. the FASTQ file is read back, reads are oriented and trimmed, and
 *      the retrieval pipeline recovers the original file.
 *
 * Point --fastq at a real Nanopore/Illumina FASTQ of your own pool to
 * run step 3 on actual wetlab data.
 *
 * Usage:
 *   wetlab_fastq [--fastq=path] [--coverage=N] [--base-error=P]
 */

#include <iostream>
#include <string>
#include <vector>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "core/pool.hh"
#include "dna/fastx.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/sequencing_run.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/args.hh"
#include "wetlab/preprocess.hh"

using namespace dnastore;

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const std::string fastq_path =
        args.get("fastq", "/tmp/dnastore_wetlab_run.fastq");
    const double coverage = args.getDouble("coverage", 25.0);
    const double base_error = args.getDouble("base-error", 0.04);

    Rng rng(77);
    const PrimerLibrary library = PrimerLibrary::design(rng, 2);
    const PrimerPair key = library.pairFor(0);

    const std::string payload_text =
        "Section VIII: fastq in, file out. Reads arrive in both "
        "orientations and must be flipped and trimmed before clustering.";
    const std::vector<std::uint8_t> data(payload_text.begin(),
                                         payload_text.end());

    MatrixCodecConfig codec_cfg;
    codec_cfg.payload_nt = 120;
    codec_cfg.index_nt = 12;
    codec_cfg.rs_n = 60;
    codec_cfg.rs_k = 44;
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);

    // --- Steps 1+2: synthesize and "sequence" into a FASTQ file. ---
    DnaPool pool;
    pool.store(0, key, encoder.encode(data));

    VirtualWetlabConfig channel_cfg;
    channel_cfg.base_error_rate = base_error;
    VirtualWetlabChannel channel(channel_cfg);
    CoverageModel cov(coverage, CoverageDistribution::LogNormalSkew);
    auto run = simulateSequencing(pool.section(0), channel, cov, rng);
    for (std::size_t i = 0; i < run.reads.size(); i += 2)
        run.reads[i] = strand::reverseComplement(run.reads[i]);
    writeFastqFile(fastq_path, readsToFastq(run.reads, "nanopore"));
    std::cout << "wrote " << run.reads.size() << " reads to " << fastq_path
              << "\n";

    // --- Step 3: from FASTQ back to the file. ---
    const auto records = readFastqFile(fastq_path);
    std::cout << "parsed " << records.size() << " FASTQ records\n";

    WetlabPreprocessConfig pre_cfg;
    pre_cfg.primer_max_edit = 6;
    const PreprocessResult pre = preprocessFastq(records, key, pre_cfg);
    std::cout << "preprocessing kept " << pre.reads.size() << " reads ("
              << pre.flipped << " flipped, " << pre.rejected
              << " rejected)\n";

    RashtchianClusterer clusterer(
        RashtchianClustererConfig::forErrorRate(
            2.0 * base_error, codec_cfg.strandLength()));
    NwConsensusReconstructor reconstructor;
    PipelineConfig pipe_cfg;
    Pipeline pipeline(
        {&encoder, &decoder, &channel, &clusterer, &reconstructor},
        pipe_cfg);
    const auto result = pipeline.runFromReads(
        pre.reads, codec_cfg.strandLength(),
        encoder.unitsForSize(data.size()));

    const std::string recovered(result.report.data.begin(),
                                result.report.data.end());
    std::cout << "clusters: " << result.clusters << " ("
              << result.dropped_clusters << " dropped, "
              << result.malformed_reads << " malformed reads)"
              << ", RS rows failed: " << result.report.failed_rows
              << "\ndecode ok: " << (result.report.ok ? "yes" : "NO")
              << " (decoding stage "
              << stageStatusName(result.status.decoding) << ")"
              << "\nrecovered: " << recovered << "\n";

    if (!result.report.ok || recovered != payload_text) {
        std::cerr << "wetlab round trip FAILED\n";
        return 1;
    }
    std::cout << "wetlab round trip OK\n";
    return 0;
}
