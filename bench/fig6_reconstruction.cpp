/**
 * @file
 * Reproduces paper Figure 6: per-index reconstruction error rate of the
 * three trace-reconstruction algorithms on identical clusters.
 *
 * The paper evaluates this figure on real wetlab data, whose bursty,
 * position-dependent errors are what separate the algorithms; the
 * default channel here is therefore the virtual wetlab.  Pass
 * --channel=iid for the naive i.i.d. channel instead (the gap between
 * the algorithms shrinks markedly — part of the paper's Section V
 * argument that naive simulation misjudges downstream modules).
 *
 * Expected shape:
 *  - single-sided BMA: error grows from left to right (misalignment
 *    propagates rightward);
 *  - double-sided BMA: roughly half the peak error, concentrated in the
 *    middle indexes;
 *  - Needleman-Wunsch consensus: flattest and lowest profile, most
 *    perfectly reconstructed strands.
 *
 * Usage:
 *   fig6_reconstruction [--clusters=N] [--coverage=N] [--error-rate=P]
 *       [--strand-len=L] [--channel=wetlab|iid] [--csv=path]
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "obs/metrics.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/error_profile.hh"
#include "simulator/iid_channel.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/args.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace dnastore;

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const std::size_t num_clusters =
        static_cast<std::size_t>(args.getInt("clusters", 1500));
    const std::size_t coverage =
        static_cast<std::size_t>(args.getInt("coverage", 10));
    const double error_rate = args.getDouble("error-rate", 0.06);
    const std::size_t strand_len =
        static_cast<std::size_t>(args.getInt("strand-len", 120));
    const std::string channel_name = args.get("channel", "wetlab");
    const std::string csv_path = args.get("csv", "");

    std::cout << "=== Fig. 6: trace reconstruction error profiles ===\n"
              << num_clusters << " clusters, coverage " << coverage
              << ", error rate " << error_rate << ", strand length "
              << strand_len << ", channel " << channel_name << "\n\n";

    Rng rng(66);
    VirtualWetlabConfig wetlab_cfg;
    wetlab_cfg.base_error_rate = error_rate;
    VirtualWetlabChannel wetlab(wetlab_cfg);
    IidChannel iid(IidChannelConfig::fromTotalErrorRate(error_rate));
    const Channel &channel = channel_name == "iid"
        ? static_cast<const Channel &>(iid)
        : static_cast<const Channel &>(wetlab);
    std::vector<Strand> originals;
    std::vector<std::vector<Strand>> clusters;
    for (std::size_t i = 0; i < num_clusters; ++i) {
        originals.push_back(strand::random(rng, strand_len));
        std::vector<Strand> reads;
        for (std::size_t c = 0; c < coverage; ++c)
            reads.push_back(channel.transmit(originals.back(), rng));
        clusters.push_back(std::move(reads));
    }

    BmaReconstructor bma;
    DoubleSidedBmaReconstructor dbma;
    NwConsensusReconstructor nw;
    const std::vector<std::pair<std::string, const Reconstructor *>>
        algos = {{"BMA", &bma}, {"DBMA", &dbma}, {"NW", &nw}};

    // Reads NW aligns against a profile: all but the seed read of each
    // cluster, up to its read cap.
    std::size_t nw_aligned_reads = 0;
    for (const auto &cluster : clusters) {
        std::size_t nonempty = 0;
        for (const Strand &read : cluster)
            nonempty += !read.empty();
        nonempty = std::min(nonempty, NwConsensusConfig{}.max_reads);
        nw_aligned_reads += nonempty > 0 ? nonempty - 1 : 0;
    }
    obs::Counter &retries =
        obs::metrics().counter("dna.msa_band_retries_total");
    obs::Counter &widenings =
        obs::metrics().counter("dna.msa_band_widenings_total");
    const std::uint64_t retries_before = retries.value();
    const std::uint64_t widenings_before = widenings.value();

    std::vector<ReconstructionProfile> profiles;
    Table summary;
    summary.header({"algorithm", "mean error", "peak error",
                    "peak index", "perfect strands", "seconds"});
    for (const auto &[name, algo] : algos) {
        WallTimer timer;
        std::vector<Strand> reconstructed;
        reconstructed.reserve(clusters.size());
        for (const auto &cluster : clusters)
            reconstructed.push_back(
                algo->reconstruct(cluster, strand_len));
        const double seconds = timer.seconds();
        auto profile = measureReconstruction(originals, reconstructed);
        double peak = 0;
        std::size_t peak_index = 0;
        for (std::size_t i = 0; i < profile.error_rate.size(); ++i) {
            if (profile.error_rate[i] > peak) {
                peak = profile.error_rate[i];
                peak_index = i;
            }
        }
        summary.row({name, Table::fmt(profile.mean_error_rate, 4),
                     Table::fmt(peak, 4), Table::fmt(peak_index),
                     Table::fmt(profile.perfect_strands) + "/" +
                         Table::fmt(profile.total_strands),
                     Table::fmt(seconds, 2)});
        profiles.push_back(std::move(profile));
    }
    std::cout << summary.text() << "\n"
              << "NW profile-MSA band reruns of " << nw_aligned_reads
              << " aligned reads: " << retries.value() - retries_before
              << " retried wider, " << widenings.value() - widenings_before
              << " widened to full width\n\n";

    Table fig;
    fig.header({"index", "BMA", "DBMA", "NW"});
    for (std::size_t i = 0; i < strand_len; i += 4) {
        fig.row({Table::fmt(i), Table::fmt(profiles[0].error_rate[i], 4),
                 Table::fmt(profiles[1].error_rate[i], 4),
                 Table::fmt(profiles[2].error_rate[i], 4)});
    }
    std::cout << "Fig. 6 series (per-index error rate):\n" << fig.text();
    if (!csv_path.empty() && fig.writeCsv(csv_path))
        std::cout << "wrote " << csv_path << "\n";

    // Shape checks.
    const auto &p_bma = profiles[0].error_rate;
    const auto &p_dbma = profiles[1].error_rate;
    double bma_head = 0, bma_tail = 0, dbma_mid = 0, dbma_edges = 0;
    for (std::size_t i = 0; i < strand_len / 4; ++i) {
        bma_head += p_bma[i];
        bma_tail += p_bma[strand_len - 1 - i];
        dbma_edges += p_dbma[i] + p_dbma[strand_len - 1 - i];
        dbma_mid += p_dbma[strand_len / 2 - strand_len / 8 + i];
    }
    std::cout << "\nshape check: BMA error grows rightward: "
              << (bma_tail > 2 * bma_head ? "yes" : "NO")
              << "\nshape check: DBMA concentrates errors mid-strand: "
              << (dbma_mid > dbma_edges ? "yes" : "NO")
              << "\nshape check: NW lowest mean error: "
              << (profiles[2].mean_error_rate <=
                          profiles[0].mean_error_rate &&
                      profiles[2].mean_error_rate <=
                          profiles[1].mean_error_rate
                      ? "yes"
                      : "NO")
              << "\n";
    return 0;
}
