#include "simulator/iid_channel.hh"

#include <cmath>
#include <stdexcept>

#include "dna/base.hh"
#include "obs/metrics.hh"

namespace dnastore
{

namespace
{

/** Process-wide channel error totals, published once per transmit. */
struct ChannelMetrics
{
    obs::Counter &insertions =
        obs::metrics().counter("channel.insertions_total");
    obs::Counter &deletions =
        obs::metrics().counter("channel.deletions_total");
    obs::Counter &substitutions =
        obs::metrics().counter("channel.substitutions_total");
    obs::Counter &bases = obs::metrics().counter("channel.bases_total");
};

ChannelMetrics &
channelMetrics()
{
    static ChannelMetrics metrics;
    return metrics;
}

/** Which of the three trials fire, for each event kind in draw order. */
constexpr std::array<bool, 5> kInserts{true, false, false, true, true};
constexpr std::array<bool, 5> kDeletes{false, true, false, true, false};
constexpr std::array<bool, 5> kSubstitutes{false, false, true, false, true};

} // namespace

IidChannel::IidChannel(IidChannelConfig config) : cfg(config)
{
    if (cfg.p_insertion < 0 || cfg.p_deletion < 0 || cfg.p_substitution < 0 ||
        cfg.total() > 1.0) {
        throw std::invalid_argument("IidChannel: invalid probabilities");
    }
    const double pi = cfg.p_insertion;
    const double pd = cfg.p_deletion;
    const double ps = cfg.p_substitution;
    const double p_clean = (1.0 - pi) * (1.0 - pd) * (1.0 - ps);
    p_any = 1.0 - p_clean;
    if (p_any <= 0.0)
        return;
    inv_log_clean = 1.0 / std::log(p_clean);
    // A deletion skips the substitution trial, so D covers both of its
    // outcomes; the five weights sum to p_any.
    const std::array<double, 5> weights{
        pi * (1.0 - pd) * (1.0 - ps), // I
        (1.0 - pi) * pd,              // D
        (1.0 - pi) * (1.0 - pd) * ps, // S
        pi * pd,                      // I+D
        pi * (1.0 - pd) * ps,         // I+S
    };
    std::size_t last = weights.size() - 1;
    while (weights[last] <= 0.0)
        --last;
    double cumulative = 0.0;
    for (std::size_t k = 0; k < kind_cdf.size(); ++k) {
        cumulative += weights[k];
        // Rounding must never hand the tail to a kind of weight 0.
        kind_cdf[k] = k >= last ? 1.0 : cumulative / p_any;
    }
}

Strand
IidChannel::transmit(const Strand &clean, Rng &rng) const
{
    Strand read;
    read.reserve(clean.size() + 8);
    std::uint64_t insertions = 0;
    std::uint64_t deletions = 0;
    std::uint64_t substitutions = 0;
    std::size_t pos = 0; // first index not yet transmitted
    while (p_any > 0.0) {
        // Clean indices before the next event: geometric on p_any.
        double u = rng.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        const double gap = std::floor(std::log(u) * inv_log_clean);
        if (gap >= static_cast<double>(clean.size() - pos))
            break;
        read.append(clean, pos, static_cast<std::size_t>(gap));
        pos += static_cast<std::size_t>(gap);
        const char c = clean[pos++];

        const double draw = rng.uniform();
        std::size_t kind = 0;
        while (kind < kind_cdf.size() && draw >= kind_cdf[kind])
            ++kind;
        // An insertion places a random base before the current one; a
        // deletion drops it; a substitution replaces it with a
        // different base.
        if (kInserts[kind]) {
            read.push_back(baseToChar(static_cast<std::uint8_t>(rng.below(4))));
            ++insertions;
        }
        if (kDeletes[kind]) {
            ++deletions;
        } else if (kSubstitutes[kind]) {
            const std::uint8_t original = charToCode(c);
            const std::uint8_t replacement = static_cast<std::uint8_t>(
                (original + 1 + rng.below(3)) & 0x3);
            read.push_back(baseToChar(replacement));
            ++substitutions;
        } else {
            read.push_back(c);
        }
    }
    read.append(clean, pos);
    ChannelMetrics &metrics = channelMetrics();
    metrics.insertions.add(insertions);
    metrics.deletions.add(deletions);
    metrics.substitutions.add(substitutions);
    metrics.bases.add(clean.size());
    return read;
}

} // namespace dnastore
