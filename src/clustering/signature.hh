/**
 * @file
 * Read signatures for cheap cluster comparison (paper Sections VI-A and
 * VI-C).  A q-gram signature records the presence/absence of a random
 * probe set of q-grams (compared with Hamming distance); the paper's
 * novel w-gram signature records the *first-occurrence position* of
 * each probe instead (compared with the L1 norm), which spreads
 * signatures of unrelated clusters further apart and avoids many edit
 * distance calls.  Both kinds come from the same one-pass scan and
 * are stored many reads to one SignatureTable.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/hot.hh"
#include "util/random.hh"

namespace dnastore
{

/** Signature flavours. */
enum class SignatureKind
{
    QGram, //!< Presence bits, Hamming distance.
    WGram, //!< First-occurrence positions, L1 distance.
};

/** Name of a signature kind. */
const char *signatureKindName(SignatureKind kind);

/**
 * A probe set of random q-grams plus the comparison rule.  The same
 * scheme instance must be used for every signature that will be
 * compared.
 */
class SignatureScheme
{
  public:
    /** Longest supported gram: the probe table has 4^q entries. */
    static constexpr std::size_t kMaxQ = 8;
    /** Most probes a q-gram scheme takes: one bit each of a mask. */
    static constexpr std::size_t kMaxQGramProbes = 64;

    /**
     * @param kind       QGram or WGram.
     * @param rng        Source for the random probe set.
     * @param q          Gram length, 1..kMaxQ.
     * @param num_grams  Probe-set size (signature dimensionality).
     */
    SignatureScheme(SignatureKind kind, Rng &rng, std::size_t q,
                    std::size_t num_grams);

    /**
     * Construct with an explicit probe set (for tests).  Throws
     * std::invalid_argument unless the probes are distinct, non-empty,
     * of one length q in 1..kMaxQ, and over upper-case ACGT, and a
     * q-gram set has at most kMaxQGramProbes of them.
     */
    SignatureScheme(SignatureKind kind, std::vector<std::string> probes);

    SignatureKind kind() const { return kind_; }
    std::size_t dimensions() const { return probes.size(); }
    const std::vector<std::string> &probeSet() const { return probes; }

  private:
    friend class SignatureTable;

    SignatureKind kind_;
    std::vector<std::string> probes;
    /** 2-bit gram code -> probe index, or -1 for a gram no probe has. */
    std::vector<std::int32_t> probe_of_code;
};

/**
 * The signatures of a fixed number of reads under one scheme, in one
 * contiguous array: a q-gram signature is one presence mask (bit p set
 * iff probe p occurs), compared by popcount(a ^ b); a w-gram signature
 * is the first position of every probe (-1 if absent), compared by L1
 * distance (paper Section VI-C).  The scheme must outlive the table.
 * Distinct rows may be computed concurrently.
 */
class SignatureTable
{
  public:
    SignatureTable(const SignatureScheme &scheme, std::size_t count);

    /**
     * Compute row i, the signature of read: one rolling 2-bit pass
     * that sets the bit (q-gram) or records the first position
     * (w-gram) of each probe it meets.  A byte other than upper-case
     * ACGT restarts the window, so no gram spanning it matches.
     */
    void compute(std::size_t i, std::string_view read);

    /** Per-probe value of row i: presence 0/1 (q-gram) or position. */
    std::int32_t value(std::size_t i, std::size_t p) const;

    /** Distance between rows i and j: Hamming (q-gram) or L1 (w-gram). */
    DNASTORE_HOT std::int64_t
    distance(std::size_t i, std::size_t j) const
    {
        if (scheme.kind() == SignatureKind::QGram)
            return std::popcount(masks[i] ^ masks[j]);
        const std::int32_t *a = positions.data() + i * dims;
        const std::int32_t *b = positions.data() + j * dims;
        std::int64_t total = 0;
        for (std::size_t p = 0; p < dims; ++p)
            total += a[p] > b[p] ? a[p] - b[p] : b[p] - a[p];
        return total;
    }

  private:
    const SignatureScheme &scheme;
    std::size_t dims;
    std::vector<std::uint64_t> masks;    //!< q-gram: one per row.
    std::vector<std::int32_t> positions; //!< w-gram: dimensions per row.
};

} // namespace dnastore

