/**
 * @file
 * Read signatures for cheap cluster comparison (paper Sections VI-A and
 * VI-C).  A q-gram signature records the presence/absence of a random
 * probe set of q-grams (compared with Hamming distance); the paper's
 * novel w-gram signature records the *first-occurrence position* of
 * each probe instead (compared with the L1 norm), which spreads
 * signatures of unrelated clusters further apart and avoids many edit
 * distance calls.  Both kinds come from the same one-pass scan.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

/** A computed signature; meaning of values depends on the scheme. */
struct Signature
{
    std::vector<std::int32_t> values;
};

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
     * of one length q in 1..kMaxQ, and over upper-case ACGT.
     */
    SignatureScheme(SignatureKind kind, std::vector<std::string> probes);

    SignatureKind kind() const { return kind_; }
    std::size_t dimensions() const { return probes.size(); }
    const std::vector<std::string> &probeSet() const { return probes; }

    /**
     * Compute the signature of a read: one rolling 2-bit pass that
     * records each probe's first position.  A byte other than upper-case
     * ACGT restarts the window, so no gram spanning it matches.
     */
    Signature compute(const std::string &read) const;

    /**
     * Distance between two signatures of this scheme: Hamming for
     * q-gram, L1 for w-gram.
     */
    std::int64_t distance(const Signature &a, const Signature &b) const;

  private:
    SignatureKind kind_;
    std::vector<std::string> probes;
    /** 2-bit gram code -> probe index, or -1 for a gram no probe has. */
    std::vector<std::int32_t> probe_of_code;
};

} // namespace dnastore

