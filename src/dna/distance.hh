/**
 * @file
 * String distances used throughout the pipeline.  Levenshtein (edit)
 * distance is the similarity metric for clustering and for evaluating
 * reconstruction quality (paper Section II-E); the banded variant bounds
 * the work when the caller only needs to know whether two reads are
 * within a merge threshold.
 */

#pragma once

#include <cstddef>
#include <string>

namespace dnastore
{

/**
 * Hamming distance between equal-length strings.
 * Throws std::invalid_argument on length mismatch.
 */
std::size_t hammingDistance(const std::string &a, const std::string &b);

/**
 * Exact Levenshtein (edit) distance: minimum number of single-character
 * insertions, deletions and substitutions transforming a into b.
 * O(|a|*|b|) time, O(min(|a|,|b|)) space.
 */
std::size_t levenshtein(const std::string &a, const std::string &b);

/**
 * Banded Levenshtein distance with cutoff.  Returns the exact distance if
 * it is <= max_distance, otherwise returns max_distance + 1.  Runs in
 * O(max_distance * min(|a|,|b|)) time.
 */
std::size_t boundedLevenshtein(const std::string &a, const std::string &b,
                               std::size_t max_distance);

/**
 * Myers' bit-parallel Levenshtein distance (blocked variant, Hyyro's
 * formulation): exact global edit distance in
 * O(ceil(min_len/64) * max_len) word operations.  This is the fast
 * kernel behind withinEditDistance for thresholds of 32 and more.  It
 * allocates nothing when the shorter string has at most 256 symbols.
 */
std::size_t myersLevenshtein(const std::string &a, const std::string &b);

/**
 * True iff levenshtein(a, b) <= max_distance.  A length gap above the
 * threshold k returns false at once.  For k <= 31 it runs Hyyro's
 * banded bit-vector kernel: the band |i - j| <= k of 2k + 1 <= 64 rows
 * fits one word, so each column of the shorter string is one word step,
 * and it stops once the score tracked along the band's lower diagonal,
 * then the last row, exceeds 2k minus the length gap.  Wider thresholds
 * run Myers' blocked kernel, which stops as soon as the distance can no
 * longer come back down to k.  Allocates nothing when both strings have
 * at most 256 symbols.
 */
bool withinEditDistance(const std::string &a, const std::string &b,
                        std::size_t max_distance);

} // namespace dnastore

