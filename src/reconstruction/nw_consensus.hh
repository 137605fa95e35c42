/**
 * @file
 * Needleman-Wunsch consensus reconstruction (paper Section VII-C): the
 * cluster's reads are combined into a multiple sequence alignment by
 * global alignment against an evolving column profile (the portable
 * counterpart of the SIMD partial-order aligner the paper builds on);
 * the consensus is the per-column majority vote, and if it exceeds the
 * expected strand length, the x most indel-heavy columns are dropped.
 */

#pragma once

#include "dna/align.hh"
#include "reconstruction/reconstructor.hh"

namespace dnastore
{

/** Tunables of the NW consensus reconstructor. */
struct NwConsensusConfig
{
    AlignScores scores{1, -1, -1};
    /**
     * Cap on the reads aligned per cluster (0 = no cap).  Alignment
     * cost grows linearly in reads, and beyond a few dozen reads the
     * consensus no longer improves; the cap keeps high-coverage runs
     * fast (cf. Table III, where NWA wins at coverage 50).
     */
    std::size_t max_reads = 32;
};

/** Profile-MSA Needleman-Wunsch consensus. */
class NwConsensusReconstructor : public Reconstructor
{
  public:
    explicit NwConsensusReconstructor(NwConsensusConfig config = {})
        : cfg(config)
    {
    }

    Strand reconstruct(const std::vector<Strand> &reads,
                       std::size_t expected_length) const override;

    std::string name() const override { return "needleman-wunsch"; }

  private:
    NwConsensusConfig cfg;
};

} // namespace dnastore

