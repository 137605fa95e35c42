/**
 * @file
 * Deterministic fault injection between pipeline stages.
 *
 * Real wetlab data is adversarial: strands vanish during synthesis,
 * reads come back truncated or elongated, index fields get corrupted,
 * junk sequences leak into the pool and clustering occasionally merges
 * or empties groups.  A FaultInjector reproduces those failure modes on
 * demand — seeded, so every fault pattern is replayable — which lets
 * tests and benchmarks prove that the pipeline degrades gracefully
 * instead of crashing.  A pipeline takes the plan as a value in its
 * config and builds one injector per run; the default plan injects
 * nothing and builds none.
 *
 * FaultInjector covers *data* faults inside a live pipeline run.  Its
 * process-level sibling lives in obs/crashpoint.hh: named crash points
 * and IO-fault knobs (kill, short write, ENOSPC, rename failure) that
 * the chaos harness arms to kill the process mid-save and prove the
 * archive's recovery invariants hold.  Together they bound the failure
 * model: everything between a flipped base and a yanked power cord.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dna/strand.hh"
#include "util/random.hh"

namespace dnastore
{

/**
 * What to break, and how often.  All rates are per-item probabilities in
 * [0, 1]; a default-constructed plan injects nothing.
 */
struct FaultPlan
{
    std::uint64_t seed = 0xfa017ULL; //!< Injection RNG seed.

    /**
     * Index field width in nucleotides; needed by the index-corruption
     * and duplicate-conflict faults (0 disables both).
     */
    std::size_t index_nt = 12;

    // --- Synthesis faults (applied to encoded strands). ---
    double strand_dropout = 0.0; //!< Whole strand never synthesised.

    // --- Sequencing faults (applied to reads). ---
    double read_truncation = 0.0;   //!< Read loses a random suffix.
    double read_elongation = 0.0;   //!< Read gains a random suffix.
    double index_corruption = 0.0;  //!< Index field rewritten randomly.
    double duplicate_conflict = 0.0; //!< Extra read: same index, junk payload.
    double garbage_read = 0.0;      //!< Read replaced by non-ACGT garbage.

    // --- Clustering faults (applied to read groups). ---
    double cluster_drop = 0.0;  //!< Cluster emptied (all reads lost).
    double cluster_merge = 0.0; //!< Cluster merged into a random other.

    /** True when any strand- or read-level rate is positive. */
    bool anyReadFaults() const;
    /** True when any cluster-level rate is positive. */
    bool anyClusterFaults() const;
    /** True when any rate is positive. */
    bool any() const { return anyReadFaults() || anyClusterFaults(); }
};

/** Per-fault-type tallies of what an injector actually did. */
struct FaultCounters
{
    std::size_t dropped_strands = 0;
    std::size_t truncated_reads = 0;
    std::size_t elongated_reads = 0;
    std::size_t corrupted_indices = 0;
    std::size_t duplicate_conflicts = 0;
    std::size_t garbage_reads = 0;
    std::size_t emptied_clusters = 0;
    std::size_t merged_clusters = 0;

    /** Total faults injected across all types. */
    std::size_t total() const;

    bool operator==(const FaultCounters &) const = default;
};

/**
 * Stateful injector applied at stage boundaries: the Pipeline builds a
 * fresh one per run from PipelineConfig::faults, so one plan always
 * replays the same fault pattern.  Counters accumulate over the
 * injector's lifetime.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan &plan() const { return plan_; }
    const FaultCounters &counters() const { return counters_; }

    /**
     * Synthesis-stage faults: removes dropped strands in place.
     * Applied between encoding and sequencing.
     */
    void injectStrands(std::vector<Strand> &strands);

    /**
     * Sequencing-stage faults: truncation, elongation, index
     * corruption, duplicate-index conflicts and garbage reads.
     * When @p origins is non-null it is kept aligned with @p reads
     * (simulation ground truth stays valid).
     */
    void injectReads(std::vector<Strand> &reads,
                     std::vector<std::uint32_t> *origins = nullptr);

    /**
     * Clustering-stage faults: empties and merges read groups in
     * place (emptied groups become zero-length, not removed).  When
     * @p origins is non-null it is kept aligned with @p groups.
     */
    void
    injectClusters(std::vector<std::vector<Strand>> &groups,
                   std::vector<std::vector<std::uint32_t>> *origins = nullptr);

  private:
    FaultPlan plan_;
    FaultCounters counters_;
    Rng rng_;
};

} // namespace dnastore

