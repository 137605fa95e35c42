/**
 * @file
 * Test-only reference for wetlab preprocessing: the earlier primer
 * handling kept verbatim in logic.  It classifies a read's orientation
 * with two prefix DPs, then strips each primer by running one banded
 * edit distance per candidate cut point, the back primer on reversed
 * copies of the read and primer.  The production preprocessReads must
 * give the same PreprocessResult on every input.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "codec/primer.hh"
#include "dna/distance.hh"
#include "dna/strand.hh"
#include "wetlab/preprocess.hh"

namespace dnastore::reference
{

/**
 * Best split point for a primer at the front of s: returns the cut
 * position with minimal edit distance between the primer and s[0, cut),
 * scanning cut in [len - slack, len + slack].
 */
inline std::optional<std::size_t>
frontCut(const Strand &primer, const std::string &s, std::size_t max_edit)
{
    const std::size_t len = primer.size();
    std::size_t best_cut = 0;
    std::size_t best_d = std::numeric_limits<std::size_t>::max();
    const std::size_t lo = len > max_edit ? len - max_edit : 0;
    const std::size_t hi = std::min(s.size(), len + max_edit);
    for (std::size_t cut = lo; cut <= hi; ++cut) {
        const std::size_t d =
            boundedLevenshtein(s.substr(0, cut), primer, max_edit);
        if (d < best_d) {
            best_d = d;
            best_cut = cut;
        }
    }
    if (best_d > max_edit)
        return std::nullopt;
    return best_cut;
}

/**
 * Strip a primer pair from a tagged strand, tolerating up to max_edit
 * edit errors in each primer region.  Returns std::nullopt when either
 * primer cannot be located within tolerance.
 */
inline std::optional<Strand>
stripPrimers(const PrimerPair &pair, const Strand &tagged,
             std::size_t max_edit)
{
    if (tagged.size() < pair.forward.size() + pair.reverse.size())
        return std::nullopt;

    const auto front = frontCut(pair.forward, tagged, max_edit);
    if (!front)
        return std::nullopt;

    // Strip the reverse primer by mirroring the strand.
    std::string flipped(tagged.rbegin(), tagged.rend());
    Strand reverse_mirrored(pair.reverse.rbegin(), pair.reverse.rend());
    const auto back = frontCut(reverse_mirrored, flipped, max_edit);
    if (!back)
        return std::nullopt;

    const std::size_t start = *front;
    const std::size_t end = tagged.size() - *back;
    if (end <= start)
        return std::nullopt;
    return tagged.substr(start, end - start);
}

/**
 * Decide the orientation of a read relative to a primer pair.
 * Returns 0 = forward, 1 = reverse (needs flip), -1 = unrecognised.
 */
inline int
classifyOrientation(const Strand &read, const PrimerPair &pair,
                    std::size_t max_edit)
{
    if (read.size() < pair.forward.size())
        return -1;
    const std::string prefix = read.substr(0, pair.forward.size());
    const std::size_t d_fwd =
        boundedLevenshtein(prefix, pair.forward, max_edit);

    const Strand rc_rev = strand::reverseComplement(pair.reverse);
    const std::string prefix_rc = read.substr(0, rc_rev.size());
    const std::size_t d_rev = boundedLevenshtein(prefix_rc, rc_rev, max_edit);

    if (d_fwd > max_edit && d_rev > max_edit)
        return -1;
    return d_fwd <= d_rev ? 0 : 1;
}

inline PreprocessResult
preprocessReads(const std::vector<Strand> &raw_reads, const PrimerPair &pair,
                const WetlabPreprocessConfig &config)
{
    PreprocessResult result;
    result.total = raw_reads.size();
    for (const Strand &raw : raw_reads) {
        const int orientation =
            classifyOrientation(raw, pair, config.primer_max_edit);
        if (orientation < 0) {
            ++result.rejected;
            continue;
        }
        Strand oriented = orientation == 0
            ? raw
            : strand::reverseComplement(raw);
        if (orientation == 1)
            ++result.flipped;
        const auto payload =
            stripPrimers(pair, oriented, config.primer_max_edit);
        if (!payload) {
            ++result.rejected;
            continue;
        }
        result.reads.push_back(*payload);
    }
    return result;
}

} // namespace dnastore::reference
