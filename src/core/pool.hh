/**
 * @file
 * The DNA pool as a key-value store (paper Section II-F): a pair of PCR
 * primers is the key; all molecules tagged with that pair form the
 * value.  PCR amplification selects the molecules of one file for
 * sequencing, implementing random access in constant chemical time.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/primer.hh"
#include "dna/strand.hh"
#include "util/random.hh"

namespace dnastore
{

/**
 * A test tube of primer-tagged molecules from any number of files,
 * grouped into one section per key (the integer id of the primer pair
 * the molecules carry).  Sections keep first-insertion order, which is
 * the pool order amplify() leaks off-target molecules in.
 */
class DnaPool
{
  public:
    using Key = std::uint32_t;

    /** The molecules stored under one key. */
    struct Section
    {
        Key key = 0;
        std::vector<Strand> molecules;
    };

    /** Attach @p primers to each payload strand and store under @p key. */
    void store(Key key, const PrimerPair &primers,
               const std::vector<Strand> &payload_strands);

    /**
     * Append molecules that already carry their primers (e.g. reloaded
     * from a pool file) to @p key's section, creating it at the end of
     * the pool when absent.
     */
    void addTagged(Key key, std::vector<Strand> tagged_molecules);

    /**
     * Append the @p added sections (each merged like addTagged), then
     * make @p last_key's section hold exactly @p last_molecules as the
     * final section, dropping its old molecules wherever it stood.
     * @p added must not hold @p last_key.
     */
    void appendAndReplaceLast(std::vector<Section> added, Key last_key,
                              std::vector<Strand> last_molecules);

    /** Molecules stored under @p key; empty when the key is absent. */
    const std::vector<Strand> &section(Key key) const;

    /** Every section, in first-insertion order. */
    const std::vector<Section> &sections() const { return sections_; }

    /** Number of stored molecules (all files). */
    std::size_t size() const { return size_; }

  private:
    std::vector<Section> sections_;
    std::unordered_map<Key, std::size_t> index_; //!< Key -> sections_ slot.
    std::size_t size_ = 0;
};

/** Knobs of the PCR random-access simulation. */
struct PcrConfig
{
    /**
     * Probability that a molecule of *another* file leaks into the
     * amplified product (off-target amplification / contamination).
     */
    double off_target_rate = 0.0;
};

/** Result of a PCR amplification. */
struct PcrProduct
{
    std::vector<Strand> molecules; //!< Tagged molecules, primers intact.
    std::size_t on_target = 0;
    std::size_t off_target = 0;
};

/**
 * Simulate PCR selection of a file: every molecule stored under @p key
 * is amplified and comes first, in store order; then each other
 * molecule, in pool order, leaks in with one rng.chance draw at the
 * configured off-target rate (no draws at rate 0).
 */
PcrProduct amplify(const DnaPool &pool, DnaPool::Key key, Rng &rng,
                   const PcrConfig &config = {});

} // namespace dnastore
