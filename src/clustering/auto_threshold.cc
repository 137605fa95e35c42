#include "clustering/auto_threshold.hh"

#include <algorithm>
#include <stdexcept>

namespace dnastore
{

Thresholds
autoConfigureThresholds(const std::vector<Strand> &reads,
                        const SignatureScheme &scheme, Rng &rng,
                        const AutoThresholdConfig &config)
{
    if (reads.size() < 2)
        throw std::invalid_argument("autoConfigureThresholds: too few reads");

    const std::size_t small_n = std::min(config.small_sample, reads.size());
    const std::size_t large_n = std::min(config.large_sample, reads.size());

    const auto small_idx = rng.sampleIndices(reads.size(), small_n);
    const auto large_idx = rng.sampleIndices(reads.size(), large_n);

    // Rows [0, small_n) hold the small sample, the rest the large one.
    SignatureTable sigs(scheme, small_n + large_n);
    for (std::size_t i = 0; i < small_n; ++i)
        sigs.compute(i, reads[small_idx[i]]);
    for (std::size_t j = 0; j < large_n; ++j)
        sigs.compute(small_n + j, reads[large_idx[j]]);

    // Histogram range: q-gram distances are bounded by dimensionality;
    // w-gram distances can reach dimensions * read length.
    std::size_t bins = scheme.dimensions() + 1;
    if (scheme.kind() == SignatureKind::WGram) {
        std::size_t max_len = 0;
        for (const Strand &r : reads)
            max_len = std::max(max_len, r.size());
        bins = scheme.dimensions() * (max_len + 2) + 1;
        bins = std::min<std::size_t>(bins, 20000);
    }

    Thresholds out{0, 0, Histogram(bins), 0, 0};
    for (std::size_t i = 0; i < small_n; ++i) {
        for (std::size_t j = 0; j < large_n; ++j) {
            if (small_idx[i] == large_idx[j])
                continue;
            out.histogram.add(sigs.distance(i, small_n + j));
        }
    }

    // Wide, sparse histograms (w-gram distances span thousands of bins)
    // need proportionally wider smoothing before any structure shows.
    const std::size_t radius =
        std::max(config.smoothing_radius, bins / 128);
    const auto smooth = out.histogram.smoothed(radius);

    // Main mode: global maximum of the smoothed histogram — the
    // unrelated-pair distance mode, since random read pairs almost
    // always come from different clusters.
    std::size_t main_peak = 0;
    for (std::size_t b = 1; b < smooth.size(); ++b)
        if (smooth[b] > smooth[main_peak])
            main_peak = b;
    const double peak_density = smooth.empty() ? 0.0 : smooth[main_peak];

    // Left edge of the main mode: the last bin (scanning left from the
    // peak) whose density has dropped below 5% of the peak.
    std::size_t left_edge = main_peak / 4;
    for (std::size_t b = main_peak; b-- > 0;) {
        if (smooth[b] <= 0.05 * peak_density) {
            left_edge = b;
            break;
        }
    }

    out.main_peak = static_cast<std::int64_t>(main_peak);
    out.valley = static_cast<std::int64_t>(left_edge);

    // theta_low must stay conservative: anything below it merges with
    // no edit-distance confirmation, so a false positive is permanent.
    // Same-cluster pairs are rare in a random sample, so the low mode
    // is often invisible; only trust it when it carries real density
    // and sits clearly left of the main mode's edge.
    std::size_t low_peak = 0;
    for (std::size_t b = 0; b < left_edge; ++b)
        if (smooth[b] > smooth[low_peak])
            low_peak = b;
    if (left_edge > 0 && smooth[low_peak] >= 0.02 * peak_density &&
        low_peak < left_edge / 2) {
        out.low = static_cast<std::int64_t>(
            std::min(low_peak + (left_edge - low_peak) / 2, left_edge / 2));
    } else {
        // No separated low mode visible: err small — a merge below
        // theta_low is never edit-checked, so only near-identical
        // signatures may skip the check.
        out.low = static_cast<std::int64_t>(left_edge / 4);
    }

    // theta_high is placed generously between the edge and the peak:
    // widening the gray zone only adds (exact) edit-distance checks, so
    // it costs time, never accuracy — important at high error rates,
    // where the same-cluster mode smears into the main mode's flank.
    out.high = static_cast<std::int64_t>((left_edge + main_peak) / 2);
    if (out.high <= out.low)
        out.high = out.low + 1;
    return out;
}

} // namespace dnastore
