/**
 * @file
 * Global sequence alignment (Needleman-Wunsch).  Used for:
 *  - pairwise alignment of clean/noisy strand pairs when fitting
 *    data-driven channel models;
 *  - classifying realised channel errors for evaluation;
 *  - the profile-based multiple sequence alignment that underlies the
 *    Needleman-Wunsch consensus reconstructor (paper Section VII-C).
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dnastore
{

/** Alignment scoring parameters (match/mismatch/gap, higher is better). */
struct AlignScores
{
    int match = 2;
    int mismatch = -1;
    int gap = -2;
};

/**
 * Result of a pairwise global alignment: both sequences padded with '-'
 * to equal length, plus the alignment score.
 */
struct PairwiseAlignment
{
    std::string aligned_a;
    std::string aligned_b;
    int score = 0;
};

/**
 * Needleman-Wunsch global alignment of a and b.
 * O(|a|*|b|) time and memory (traceback matrix).
 */
PairwiseAlignment
globalAlign(const std::string &a, const std::string &b,
            const AlignScores &scores = AlignScores{});

/** Edit-operation kinds observed in an alignment. */
enum class EditKind : std::uint8_t { Match, Substitution, Insertion, Deletion };

/**
 * One edit event derived from an alignment, positioned on the *reference*
 * (clean) sequence.  Insertions carry the inserted character; deletions
 * the deleted reference character.
 */
struct EditOp
{
    EditKind kind;
    /** Index into the reference sequence (for insertions: the gap slot). */
    std::size_t ref_pos;
    char ref_char;  //!< Reference character ('-' for insertions).
    char read_char; //!< Read character ('-' for deletions).
};

/**
 * Classify per-position edits between a reference and a read using a
 * global alignment.  Matches are included so callers can compute
 * per-position error rates directly.
 */
std::vector<EditOp>
classifyEdits(const std::string &reference, const std::string &read,
              const AlignScores &scores = AlignScores{});

/**
 * A column-profile multiple sequence alignment.  Reads are aligned one at
 * a time against the evolving profile; each column stores counts of
 * A/C/G/T and gap.  This is the portable stand-in for a SIMD partial-order
 * aligner: same algorithmic shape (global alignment to a growing MSA,
 * majority-vote consensus, indel-heavy column trimming), scalar
 * implementation.
 *
 * Scores are the profile-average scores multiplied by the number of
 * reads already added, so every cell is an exact integer: aligning a
 * base to a column scores matches*match + mismatches*mismatch +
 * gaps*gap, a read gap scores bases*gap, and a new column scores
 * reads*gap.  Ties resolve diagonal > up > left.
 *
 * The DP is banded around the profile's base-majority columns (those
 * at most half of whose reads are gaps).  With c(i) of them among the
 * first i columns, C = c(m) in all, and an n-base read, row i fills the
 * cells j with j - c(i) in [min(0, n-C) - w, max(0, n-C) + w] (w = 8),
 * so a read follows the profile's consensus rather than its diagonal,
 * and the columns other reads inserted cost the band no width.
 * Alongside the banded scores the same loop carries an upper bound on
 * every path that leaves the band, scoring each step outside it as the
 * column's best possible step.  If that bound reaches the banded
 * optimum, the read's alignment may lie outside the band, so the same
 * loop is rerun with max(m - C, w) more slack on each side
 * (`dna.msa_band_retries_total`), and if that cannot be proved exact
 * either, at full width (`dna.msa_band_widenings_total`).  Otherwise
 * the banded alignment is exactly the full-width one, tie-breaking
 * included.  Scratch buffers live in the object and are reused across
 * reads, so one ProfileMsa must not be shared between threads.
 */
class ProfileMsa
{
  public:
    explicit ProfileMsa(const AlignScores &scores = AlignScores{});

    /** Add a read to the MSA (first read seeds the profile). */
    void addRead(const std::string &read);

    /** Number of reads added. */
    std::size_t numReads() const { return reads_added; }

    /** Number of alignment columns. */
    std::size_t numColumns() const { return columns.size(); }

    /** Count of base code b (0..3) in column col. */
    std::uint32_t
    baseCount(std::size_t col, std::uint8_t code) const
    {
        return columns.at(col).counts[code];
    }

    /** Count of gaps in column col. */
    std::uint32_t
    gapCount(std::size_t col) const
    {
        return columns.at(col).counts[4];
    }

    /**
     * Majority-vote consensus:
     *  - columns whose majority is a gap are dropped;
     *  - if the result still exceeds expected_length (nonzero), the excess
     *    columns with the highest gap (indel) counts are dropped, as per
     *    paper Section VII-C.
     */
    std::string consensus(std::size_t expected_length = 0) const;

  private:
    struct Column
    {
        // counts[0..3] = A,C,G,T; counts[4] = gap.
        std::array<std::uint32_t, 5> counts{};
    };

    /** One traceback move; col/code are meaningful per direction. */
    struct Step
    {
        std::uint8_t dir;
        std::uint8_t code;
        std::size_t col;
    };

    /**
     * Fill the DP of scratch.codes against the profile over the cells
     * with j - c(i) in [lo, hi] into scratch.trace, c(i) being the
     * number of majority columns among the first i.  Returns true if no
     * path leaving the band can score as high as the banded optimum,
     * i.e. the band gives the full-width alignment.
     */
    bool alignBanded(std::ptrdiff_t lo, std::ptrdiff_t hi);

    /** Trace scratch.trace back from the end into scratch.steps. */
    void traceBack();

    AlignScores scores;
    std::vector<Column> columns;
    std::size_t reads_added = 0;
    /** Majority columns in the profile: C, the band's centre at row m. */
    std::size_t majority_columns = 0;

    /** Per-read working memory, kept to avoid reallocating per read. */
    struct Scratch
    {
        std::vector<std::uint8_t> codes;
        std::vector<std::int64_t> row;
        std::vector<std::int64_t> bound;
        std::vector<std::uint8_t> trace;
        std::vector<Step> steps;
        std::vector<Column> merged;
    } scratch;
};

} // namespace dnastore

