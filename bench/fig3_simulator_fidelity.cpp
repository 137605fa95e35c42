/**
 * @file
 * Reproduces paper Figure 3 and Table I: how faithfully do different
 * wetlab simulators mimic real sequencing data?
 *
 * The paper measures this end to end: reads from each simulator are
 * pushed through the double-sided-BMA reconstruction module, and the
 * per-index reconstruction error profile is compared against the
 * profile obtained on real data.  We do not have the paper's 270K-read
 * Nanopore dataset, so the "real" data is produced by the hidden
 * virtual-wetlab reference channel (see DESIGN.md, Substitutions); the
 * simulators under test never see its internals:
 *
 *  - Rashtchian: i.i.d. insertion/deletion/substitution channel whose
 *    total rate is matched to the real data's measured rate;
 *  - SOLQC: nucleotide-conditioned rates, pre-insertions only, matched
 *    the same way;
 *  - RNN: the GRU+attention seq2seq model trained on clean/noisy pairs
 *    from the real data (training split), sampling temperature
 *    calibrated on the validation split;
 *  - Markov (extra ablation): position/context statistical model fitted
 *    on the same training pairs.
 *
 * Metrics (paper Section V-A):
 *  (i)   per-index reconstruction error rate      -> Fig. 3 series
 *  (ii)  average of (i) over all indexes          -> Table I row 1
 *  (iii) mean |profile - real profile|            -> Table I row 2
 *  (iv)  number of perfectly reconstructed strands-> Table I row 3
 *
 * Expected shape: the naive channels are much EASIER to reconstruct
 * than real data (fewer errors after reconstruction, more perfect
 * strands); the learned models track the real profile closely.
 *
 * Usage:
 *   fig3_simulator_fidelity [--quick] [--train-clusters=N]
 *       [--test-clusters=N] [--strand-len=L] [--coverage=N]
 *       [--epochs=N] [--hidden=N] [--model-cache=path] [--csv=path]
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "nn/seq2seq.hh"
#include "reconstruction/bma.hh"
#include "simulator/error_profile.hh"
#include "simulator/iid_channel.hh"
#include "simulator/markov_channel.hh"
#include "simulator/seq2seq_channel.hh"
#include "simulator/solqc_channel.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/args.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace dnastore;

namespace
{

struct Dataset
{
    std::vector<Strand> strands;                 //!< Clean originals.
    std::vector<std::vector<Strand>> clusters;   //!< Reads per strand.
};

Dataset
sequenceWith(const Channel &channel, const std::vector<Strand> &strands,
             std::size_t coverage, Rng &rng)
{
    Dataset out;
    out.strands = strands;
    out.clusters.resize(strands.size());
    for (std::size_t s = 0; s < strands.size(); ++s)
        for (std::size_t c = 0; c < coverage; ++c)
            out.clusters[s].push_back(channel.transmit(strands[s], rng));
    return out;
}

ReconstructionProfile
reconstructAndMeasure(const Dataset &dataset)
{
    DoubleSidedBmaReconstructor dbma;
    std::vector<Strand> reconstructed;
    reconstructed.reserve(dataset.clusters.size());
    const std::size_t len = dataset.strands.front().size();
    for (const auto &cluster : dataset.clusters)
        reconstructed.push_back(dbma.reconstruct(cluster, len));
    return measureReconstruction(dataset.strands, reconstructed);
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const bool quick = args.getBool("quick");
    const std::size_t train_clusters = static_cast<std::size_t>(
        args.getInt("train-clusters", quick ? 80 : 250));
    const std::size_t val_clusters = static_cast<std::size_t>(
        args.getInt("val-clusters", quick ? 10 : 30));
    const std::size_t test_clusters = static_cast<std::size_t>(
        args.getInt("test-clusters", quick ? 120 : 400));
    const std::size_t strand_len =
        static_cast<std::size_t>(args.getInt("strand-len", quick ? 50 : 60));
    const std::size_t coverage =
        static_cast<std::size_t>(args.getInt("coverage", 8));
    const std::size_t train_coverage =
        static_cast<std::size_t>(args.getInt("train-coverage", 5));
    const std::size_t epochs =
        static_cast<std::size_t>(args.getInt("epochs", quick ? 12 : 30));
    const std::size_t pretrain_epochs = static_cast<std::size_t>(
        args.getInt("pretrain-epochs", quick ? 4 : 8));
    const std::size_t hidden =
        static_cast<std::size_t>(args.getInt("hidden", 32));
    const double base_error = args.getDouble("base-error", 0.07);
    const std::string model_cache = args.get("model-cache", "");
    const std::string csv_path = args.get("csv", "");

    const std::uint64_t seed = 20240404;
    Rng rng(seed);
    WallTimer total_timer;

    std::cout << "=== Fig. 3 / Table I: simulator fidelity ===\n"
              << "clusters (train/val/test): " << train_clusters << "/"
              << val_clusters << "/" << test_clusters
              << ", strand length " << strand_len << ", coverage "
              << coverage << "\n\n";

    // ---- The "real" dataset (virtual wetlab as the hidden channel). --
    VirtualWetlabConfig real_cfg;
    real_cfg.base_error_rate = base_error;
    VirtualWetlabChannel real_channel(real_cfg);
    std::vector<Strand> all_strands;
    const std::size_t total_clusters =
        train_clusters + val_clusters + test_clusters;
    for (std::size_t i = 0; i < total_clusters; ++i)
        all_strands.push_back(strand::random(rng, strand_len));

    const std::vector<Strand> train_strands(
        all_strands.begin(),
        all_strands.begin() + static_cast<long>(train_clusters));
    const std::vector<Strand> val_strands(
        all_strands.begin() + static_cast<long>(train_clusters),
        all_strands.begin() +
            static_cast<long>(train_clusters + val_clusters));
    const std::vector<Strand> test_strands(
        all_strands.begin() +
            static_cast<long>(train_clusters + val_clusters),
        all_strands.end());

    const Dataset real_train =
        sequenceWith(real_channel, train_strands, train_coverage, rng);

    // Measured channel-level error rate of the real data: the naive
    // simulators are configured from this, exactly as a researcher
    // would match a simulator to published error rates.
    std::vector<Strand> flat_clean, flat_noisy;
    std::vector<nn::StrandPair> train_pairs;
    for (std::size_t s = 0; s < real_train.strands.size(); ++s) {
        for (const Strand &read : real_train.clusters[s]) {
            flat_clean.push_back(real_train.strands[s]);
            flat_noisy.push_back(read);
            train_pairs.push_back({real_train.strands[s], read});
        }
    }
    const auto channel_profile =
        measureChannelErrors(flat_clean, flat_noisy);
    const double real_rate = channel_profile.mean_error_rate;
    std::cout << "measured real channel error rate: "
              << Table::fmt(real_rate, 4) << " ("
              << train_pairs.size() << " training pairs)\n";

    // ---- Simulators under test. ----
    IidChannel rashtchian(IidChannelConfig::fromTotalErrorRate(real_rate));
    SolqcChannel solqc(SolqcChannelConfig::fromTotalErrorRate(real_rate));

    WallTimer train_timer;
    Seq2SeqChannelConfig rnn_cfg;
    rnn_cfg.model.hidden = hidden;
    rnn_cfg.model.attention = hidden;
    rnn_cfg.model.adam.lr = 3e-3f;
    rnn_cfg.epochs = 1; // driven manually for the decay schedule
    Seq2SeqChannel rnn(rnn_cfg);
    bool loaded = false;
    if (!model_cache.empty() && rnn.model().load(model_cache)) {
        std::cout << "loaded RNN parameters from " << model_cache << "\n";
        loaded = true;
    }
    if (!loaded) {
        // Curriculum: a few epochs on identity pairs first teach the
        // attention to copy (the hard part), then the real pairs teach
        // the noise structure.
        if (pretrain_epochs > 0) {
            std::vector<nn::StrandPair> identity_pairs;
            identity_pairs.reserve(train_pairs.size());
            for (const auto &pair : train_pairs)
                identity_pairs.push_back({pair.clean, pair.clean});
            rnn.model().train(identity_pairs, pretrain_epochs, 8, rng);
            std::cout << "identity pretraining done ("
                      << Table::fmt(train_timer.seconds(), 1) << "s)\n";
        }
        const double final_loss =
            rnn.model().train(train_pairs, epochs, 8, rng, 0.985);
        std::cout << "trained RNN for " << pretrain_epochs << "+" << epochs
                  << " epochs in " << Table::fmt(train_timer.seconds(), 1)
                  << "s (final loss " << Table::fmt(final_loss, 4)
                  << ")\n";
        if (!model_cache.empty() && rnn.model().save(model_cache))
            std::cout << "cached RNN parameters to " << model_cache << "\n";
    }
    // Calibrate sampling temperature on the validation split so the
    // sampled error rate matches the real channel's.
    const double temperature =
        rnn.model().calibrateTemperature(val_strands, real_rate, rng, 2);
    std::cout << "calibrated sampling temperature: "
              << Table::fmt(temperature, 3) << "\n";
    rnn.setSampleTemperature(temperature);

    MarkovChannel markov(MarkovChannel::fit(flat_clean, flat_noisy));

    // ---- Run every simulator through DBMA reconstruction. ----
    // Each column's test set draws from its own stream, numbered by the
    // column's place in the table, so a change in how many draws one
    // channel takes leaves every other column's sample as it was.
    const std::vector<std::string> order = {"Rashtchian", "SOLQC", "RNN",
                                            "Markov", "Real"};
    std::map<std::string, ReconstructionProfile> profiles;
    const auto measureColumn = [&](const std::string &name,
                                   const Channel &channel) {
        const auto column = static_cast<std::uint64_t>(
            std::find(order.begin(), order.end(), name) - order.begin());
        Rng column_rng(mixSeed(seed, column));
        profiles[name] = reconstructAndMeasure(
            sequenceWith(channel, test_strands, coverage, column_rng));
    };
    measureColumn("Real", real_channel);
    measureColumn("Rashtchian", rashtchian);
    measureColumn("SOLQC", solqc);
    {
        WallTimer sample_timer;
        measureColumn("RNN", rnn);
        std::cout << "RNN sampling took "
                  << Table::fmt(sample_timer.seconds(), 1) << "s\n";
    }
    measureColumn("Markov", markov);

    // ---- Table I. ----
    const auto &real = profiles.at("Real");
    Table table;
    table.header({"metric", "Rashtchian", "SOLQC", "RNN", "Markov",
                  "Real"});
    std::vector<std::string> row_ii = {"(ii) avg error rate"};
    std::vector<std::string> row_iii = {"(iii) avg |diff| vs real"};
    std::vector<std::string> row_iv = {"(iv) perfectly reconstructed"};
    for (const auto &name : order) {
        const auto &profile = profiles.at(name);
        row_ii.push_back(Table::fmt(profile.mean_error_rate * 100, 2) +
                         "%");
        row_iii.push_back(
            name == "Real"
                ? "-"
                : Table::fmt(profileDeviation(profile, real) * 100, 2) +
                    "%");
        row_iv.push_back(Table::fmt(profile.perfect_strands) + "/" +
                         Table::fmt(profile.total_strands));
    }
    table.row(row_ii);
    table.row(row_iii);
    table.row(row_iv);
    std::cout << "\nTable I (simulator fidelity through DBMA "
                 "reconstruction):\n"
              << table.text() << "\n";

    // ---- Fig. 3: per-index error-rate series. ----
    Table fig;
    fig.header({"index", "Rashtchian", "SOLQC", "RNN", "Markov", "Real"});
    const std::size_t stride = strand_len >= 40 ? 4 : 2;
    for (std::size_t i = 0; i < strand_len; i += stride) {
        std::vector<std::string> row = {Table::fmt(i)};
        for (const auto &name : order)
            row.push_back(
                Table::fmt(profiles.at(name).error_rate[i], 4));
        fig.row(row);
    }
    std::cout << "Fig. 3 (per-index reconstruction error rate):\n"
              << fig.text() << "\n";
    if (!csv_path.empty() && fig.writeCsv(csv_path))
        std::cout << "wrote series to " << csv_path << "\n";

    // ---- Shape checks the paper's narrative rests on. ----
    const double rash_err = profiles.at("Rashtchian").mean_error_rate;
    const double rnn_dev = profileDeviation(profiles.at("RNN"), real);
    const double rash_dev =
        profileDeviation(profiles.at("Rashtchian"), real);
    std::cout << "shape check: naive sim easier than real data: "
              << (rash_err < real.mean_error_rate ? "yes" : "NO") << "\n"
              << "shape check: RNN deviation < Rashtchian deviation: "
              << (rnn_dev < rash_dev ? "yes" : "NO") << "\n"
              << "total wall time: " << Table::fmt(total_timer.seconds(), 1)
              << "s\n";
    return 0;
}
