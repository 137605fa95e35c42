/**
 * @file
 * Drives one simulated wetlab round trip: replicates every encoded
 * strand according to a coverage model, pushes each copy through a
 * Channel, and shuffles the resulting reads — exactly what a sequencer
 * hands back (paper Sections III and V).  Ground-truth origins are kept
 * alongside for evaluating clustering and reconstruction.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "simulator/channel.hh"
#include "simulator/coverage.hh"

namespace dnastore
{

/** The output of a simulated synthesis+sequencing round trip. */
struct SequencingRun
{
    /** Noisy reads, in shuffled (sequencer) order. */
    std::vector<Strand> reads;
    /**
     * Ground truth: origin[i] is the index of the encoded strand that
     * produced reads[i].  Available only in simulation; used by the
     * evaluation harness, never by the pipeline itself.
     */
    std::vector<std::uint32_t> origin;
    /** Number of strands that received zero reads (dropouts). */
    std::size_t dropped_strands = 0;
};

/**
 * Simulate sequencing of @p strands through @p channel with coverage
 * drawn from @p coverage.  Reads are shuffled unless @p shuffle is
 * false (useful for deterministic unit tests).
 *
 * Stream contract: one base seed is drawn from @p rng, and strand s
 * draws its coverage and then its reads, in copy order, from its own
 * Rng(mixSeed(base, s)).  The shuffle is one permutation drawn from
 * @p rng afterwards.  Strands are simulated on up to @p width threads
 * (parallelFor; 0 = the shared pool's size), so @p channel's transmit
 * must be safe to call concurrently, and the run is identical at
 * every width.
 */
SequencingRun
simulateSequencing(const std::vector<Strand> &strands, const Channel &channel,
                   const CoverageModel &coverage, Rng &rng,
                   bool shuffle = true, std::size_t width = 1);

} // namespace dnastore

