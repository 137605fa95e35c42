/**
 * @file
 * Wetlab-data handling (paper Section VIII): turns raw FASTQ output of
 * a sequencer into the plain payload reads the clustering module
 * expects.  Sequenced reads come in both orientations, so each read is
 * matched against the file's primer pair (or its reverse complement),
 * flipped into 5'->3' orientation when needed, and stripped of its
 * primers; reads whose primers cannot be located are rejected.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "codec/primer.hh"
#include "dna/fastx.hh"
#include "dna/strand.hh"

namespace dnastore
{

/** Preprocessing knobs. */
struct WetlabPreprocessConfig
{
    /** Edit-distance tolerance when locating each primer. */
    std::size_t primer_max_edit = 5;
};

/** Outcome counters plus the surviving payload reads. */
struct PreprocessResult
{
    std::vector<Strand> reads;     //!< Payload-only, 5'->3'.
    std::size_t total = 0;         //!< Input records.
    std::size_t flipped = 0;       //!< Reverse-complemented reads.
    std::size_t rejected = 0;      //!< No recognisable primer pair.
};

/**
 * Preprocess sequencer output for one file (identified by its primer
 * pair).  Orientation is decided by whichever primer matches the read
 * prefix best: the forward primer (read is already 5'->3') or the
 * reverse complement of the reverse primer (read must be flipped); a
 * tie stays forward.  Each primer is cut at the first least-distance
 * point within primer_max_edit of its length.
 */
PreprocessResult
preprocessFastq(const std::vector<FastqRecord> &records,
                const PrimerPair &pair,
                const WetlabPreprocessConfig &config = {});

/** Same, operating on bare sequences (e.g. simulator output). */
PreprocessResult
preprocessReads(const std::vector<Strand> &raw_reads, const PrimerPair &pair,
                const WetlabPreprocessConfig &config = {});

/**
 * Package reads as FASTQ records with constant quality, emulating the
 * "convert to text" interchange used between wetlab and toolkit.
 */
std::vector<FastqRecord>
readsToFastq(const std::vector<Strand> &reads,
             const std::string &id_prefix = "read");

} // namespace dnastore

