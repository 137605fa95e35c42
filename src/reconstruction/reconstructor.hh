/**
 * @file
 * Trace-reconstruction module interface (paper Section VII): given a
 * cluster of noisy reads of one encoded strand, produce the best
 * estimate of the original strand.
 */

#pragma once

#include <string>
#include <vector>

#include "dna/strand.hh"

namespace dnastore
{

/** One trace-reconstruction (consensus-finding) algorithm. */
class Reconstructor
{
  public:
    virtual ~Reconstructor() = default;

    /**
     * Reconstruct the original strand from a cluster of noisy reads.
     *
     * @param reads           Noisy reads of one strand (non-empty).
     * @param expected_length Known encoded strand length; the result is
     *                        exactly this long.
     */
    virtual Strand reconstruct(const std::vector<Strand> &reads,
                               std::size_t expected_length) const = 0;

    /** Human-readable module name. */
    virtual std::string name() const = 0;
};

/**
 * Reconstruct every cluster, optionally in parallel.
 *
 * @param clusters        Read groups (e.g. Clustering::clusters
 *                        resolved to actual reads).
 * @param expected_length Encoded strand length.
 * @param num_threads     parallelFor width: 1 = sequential, 0 = the
 *                        shared pool's size.
 */
std::vector<Strand>
reconstructAll(const Reconstructor &algo,
               const std::vector<std::vector<Strand>> &clusters,
               std::size_t expected_length, std::size_t num_threads = 1);

} // namespace dnastore

