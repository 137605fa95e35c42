/**
 * @file
 * PCR primer design and handling (paper Sections II-E/F); locating
 * primers in sequenced reads (Section VIII) is wetlab/preprocess's job.
 * A pair of ~20-nt primers is the "key" of a stored file: all molecules
 * of the file are tagged with the pair, and PCR amplification of the
 * pair implements random access.  Primers must be mutually distant in
 * Hamming distance, GC-balanced and homopolymer-free so that PCR binds
 * specifically and synthesis succeeds.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dna/strand.hh"
#include "util/random.hh"

namespace dnastore
{

/** A forward/reverse primer pair addressing one file. */
struct PrimerPair
{
    Strand forward;
    Strand reverse;
};

/** Constraints a primer must satisfy. */
struct PrimerConstraints
{
    std::size_t length = 20;          //!< Primer length in nucleotides.
    std::size_t min_hamming = 8;      //!< Pairwise distance to all others.
    double min_gc = 0.40;             //!< Lower GC-content bound.
    double max_gc = 0.60;             //!< Upper GC-content bound.
    std::size_t max_homopolymer = 3;  //!< Longest run allowed.
};

/**
 * A library of mutually well-separated primers.  Primer i and its
 * reverse complement are both kept at distance from every other library
 * member, so reads can be orientation-classified unambiguously.
 */
class PrimerLibrary
{
  public:
    /**
     * Greedily design num_primers primers satisfying the constraints.
     * Throws std::runtime_error if the search cannot place a primer
     * within a bounded number of attempts (constraints too tight).
     */
    static PrimerLibrary design(Rng &rng, std::size_t num_primers,
                                const PrimerConstraints &constraints = {});

    /**
     * Continue the greedy design that produced this library up to
     * num_primers primers.  The search is prefix-stable: given @p rng in
     * the state that design left it, the result equals one design call
     * for num_primers from the original seed.  Throws like design().
     */
    PrimerLibrary grown(Rng &rng, std::size_t num_primers,
                        const PrimerConstraints &constraints = {}) const;

    /** Construct from pre-existing primers (validated for length only). */
    explicit PrimerLibrary(std::vector<Strand> primers);

    std::size_t size() const { return primers.size(); }
    const Strand &primer(std::size_t i) const { return primers.at(i); }
    const std::vector<Strand> &all() const { return primers; }

    /** Primer pair for file slot i (forward = 2i, reverse = 2i+1). */
    PrimerPair pairFor(std::size_t file_slot) const;

    /** Number of complete pairs available. */
    std::size_t numPairs() const { return primers.size() / 2; }

  private:
    std::vector<Strand> primers;
};

/** Attach a primer pair around a payload strand (Fig. 2a layout). */
Strand attachPrimers(const PrimerPair &pair, const Strand &payload);

} // namespace dnastore

