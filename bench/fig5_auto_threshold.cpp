/**
 * @file
 * Reproduces paper Figure 5: the signature-distance histogram used to
 * auto-configure the clustering thresholds.  A small sample of reads is
 * compared against a larger sample; the distance distribution is
 * bimodal (same-cluster pairs near zero, unrelated pairs in a large
 * mode), and theta_low / theta_high are picked around the gap.
 *
 * Usage:
 *   fig5_auto_threshold [--strands=N] [--coverage=N] [--error-rate=P]
 */

#include <iostream>

#include "clustering/auto_threshold.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "util/args.hh"
#include "util/table.hh"

using namespace dnastore;

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const std::size_t num_strands =
        static_cast<std::size_t>(args.getInt("strands", 800));
    const double coverage = args.getDouble("coverage", 10.0);
    const double error_rate = args.getDouble("error-rate", 0.06);

    std::cout << "=== Fig. 5: automatic threshold configuration ===\n"
              << num_strands << " strands, coverage " << coverage
              << ", error rate " << error_rate << "\n\n";

    Rng rng(55);
    std::vector<Strand> strands;
    for (std::size_t s = 0; s < num_strands; ++s)
        strands.push_back(strand::random(rng, 132));
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(error_rate));
    CoverageModel cov(coverage, CoverageDistribution::Poisson);
    const auto run = simulateSequencing(strands, channel, cov, rng);

    for (const SignatureKind kind :
         {SignatureKind::QGram, SignatureKind::WGram}) {
        SignatureScheme scheme(kind, rng, 4, 60);
        AutoThresholdConfig cfg;
        // A bigger sample makes the low mode visible in the plot, as in
        // the paper's figure.
        cfg.small_sample = 80;
        cfg.large_sample = 600;
        const auto thresholds =
            autoConfigureThresholds(run.reads, scheme, rng, cfg);

        std::cout << "--- " << signatureKindName(kind)
                  << " signatures ---\n"
                  << "theta_low = " << thresholds.low
                  << ", theta_high = " << thresholds.high
                  << " (main mode at " << thresholds.main_peak
                  << ", left edge at " << thresholds.valley << ")\n";

        if (kind == SignatureKind::QGram) {
            std::cout << "distance histogram (distance | count):\n"
                      << thresholds.histogram.render(60) << "\n";
        } else {
            // The w-gram histogram spans thousands of distance values;
            // print a coarse 40-bucket view instead.
            const auto &h = thresholds.histogram;
            const std::size_t bucket =
                (h.numBins() + 39) / 40;
            std::cout << "coarse distance histogram (bucket of " << bucket
                      << " | count):\n";
            Histogram coarse(40);
            for (std::size_t b = 0; b < h.numBins(); ++b)
                for (std::uint64_t c = 0; c < h.bin(b); ++c)
                    coarse.add(static_cast<std::int64_t>(b / bucket));
            std::cout << coarse.render(60) << "\n";
        }

        // Quality of the chosen thresholds on labelled pairs.
        SignatureTable sigs(scheme, run.reads.size());
        for (std::size_t i = 0; i < run.reads.size(); ++i)
            sigs.compute(i, run.reads[i]);
        std::size_t intra_below_high = 0, intra_low = 0, intra_total = 0;
        std::size_t inter_above_low = 0, inter_total = 0;
        for (int t = 0; t < 4000; ++t) {
            const std::size_t i = rng.below(run.reads.size());
            const std::size_t j = rng.below(run.reads.size());
            if (i == j)
                continue;
            const auto d = sigs.distance(i, j);
            if (run.origin[i] == run.origin[j]) {
                ++intra_total;
                intra_below_high += d < thresholds.high;
                intra_low += d <= thresholds.low;
            } else {
                ++inter_total;
                inter_above_low += d > thresholds.low;
            }
        }
        if (intra_total > 0) {
            std::cout << "same-cluster pairs below theta_high: "
                      << intra_below_high << "/" << intra_total
                      << " (merge-eligible), of which " << intra_low
                      << " below theta_low (no edit check needed)\n";
        }
        std::cout << "unrelated pairs above theta_low: " << inter_above_low
                  << "/" << inter_total << " (no blind merges)\n\n";
    }
    return 0;
}
