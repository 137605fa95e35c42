/**
 * @file
 * The end-to-end pipeline (paper Section III): Encoding -> Simulation
 * -> Clustering -> Trace Reconstruction -> Decoding & Error Correction.
 * Every stage is a swappable module passed in by reference; the
 * pipeline wires them together, times each stage (Table III), and can
 * evaluate intermediate quality against simulation ground truth.
 *
 * run()/runFromReads() never throw: module failures are caught at stage
 * boundaries, recorded as StageStatus/PipelineError entries, and the
 * pipeline continues with whatever data survived.  An optional fault
 * plan (PipelineConfig::faults) degrades the data between stages for
 * robustness testing, and an optional recovery policy retries a failed
 * decode with degraded settings (relaxed cluster filter, fallback
 * reconstructor).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "clustering/clusterer.hh"
#include "codec/codec.hh"
#include "core/fault.hh"
#include "obs/lock_timing.hh"
#include "obs/metrics.hh"
#include "reconstruction/reconstructor.hh"
#include "simulator/channel.hh"
#include "simulator/coverage.hh"

namespace dnastore
{

/** Per-stage wall-clock latency (Table III rows). */
struct StageLatency
{
    double encoding = 0.0;
    double simulation = 0.0;
    double clustering = 0.0;
    double reconstruction = 0.0;
    double decoding = 0.0;

    double
    total() const
    {
        return encoding + simulation + clustering + reconstruction +
            decoding;
    }
};

/** Outcome of one pipeline stage. */
enum class StageStatus : std::uint8_t
{
    Skipped = 0,  //!< Stage did not run (e.g. simulation in runFromReads).
    Ok = 1,       //!< Ran cleanly.
    Degraded = 2, //!< Ran, but lost or repaired some data on the way.
    Failed = 3,   //!< Module failed; pipeline continued on fallbacks.
};

/** Human-readable stage status. */
const char *stageStatusName(StageStatus status);

/** Status of every stage after a run. */
struct StageStatusSet
{
    StageStatus encoding = StageStatus::Skipped;
    StageStatus simulation = StageStatus::Skipped;
    StageStatus clustering = StageStatus::Skipped;
    StageStatus reconstruction = StageStatus::Skipped;
    StageStatus decoding = StageStatus::Skipped;

    /** True when any stage failed outright. */
    bool anyFailed() const;
    /** True when any stage degraded or failed. */
    bool anyDegraded() const;
};

/** One recorded failure, attributed to the stage that raised it. */
struct PipelineError
{
    std::string stage;   //!< "encoding", "clustering", "pipeline", ...
    std::string message; //!< what() of the caught exception.
};

/** One decode attempt made by the recovery policy. */
struct RecoveryAttempt
{
    std::string description; //!< Which degraded setting was tried.
    bool ok = false;         //!< Did this attempt decode successfully?
    std::size_t failed_rows = 0; //!< RS rows still failing afterwards.
};

/** Everything a pipeline run produces. */
struct PipelineResult
{
    DecodeReport report;       //!< Final decode outcome.
    StageLatency latency;
    /**
     * Per-stage thread-CPU time (CLOCK_THREAD_CPUTIME_ID) of the thread
     * driving the stage, including the parallelFor chunks it runs
     * itself.  cpu/wall is the stage's utilization: near 1.0 means the
     * driving thread computed the whole time, near 0.0 means it mostly
     * waited.  CPU of the chunks that pool helpers ran shows up in the
     * `util.thread_pool.task_cpu_seconds` histogram instead.
     */
    StageLatency cpu;
    StageStatusSet status;     //!< Per-stage outcome taxonomy.
    std::vector<PipelineError> errors; //!< Caught module failures.

    std::size_t encoded_strands = 0;
    std::size_t reads = 0;
    std::size_t clusters = 0;
    std::size_t dropped_strands = 0;
    /** Clusters discarded because they were under min_cluster_size. */
    std::size_t dropped_clusters = 0;
    /** Reads rejected before clustering (empty or non-ACGT). */
    std::size_t malformed_reads = 0;

    /** What this run's fault injector did (all zero without faults). */
    FaultCounters faults;
    /** Decode retries made by the recovery policy, in order. */
    std::vector<RecoveryAttempt> recovery_attempts;
    /** True when a recovery retry (not the first decode) produced report. */
    bool recovered = false;

    /** A_1 accuracy vs ground truth (simulated runs only). */
    double clustering_accuracy = 0.0;
    /**
     * Fraction of encoded strands reconstructed exactly; a strand split
     * over several clusters counts once.
     */
    double perfect_reconstructions = 0.0;

    /**
     * Delta of the process-wide metrics registry across this run: every
     * counter/histogram increment the modules published while the run
     * was in flight (exact when runs do not overlap; overlapping runs
     * each see the union of concurrent increments).  Serialised into
     * the machine-readable run report (core/run_report.hh).
     */
    obs::MetricsSnapshot metrics;

    /**
     * Per-run delta of the lock-contention registry (empty unless
     * contention profiling is armed, obs/lock_timing.hh).
     */
    obs::locktime::ContentionSnapshot contention;
};

/** Module wiring for one pipeline instance. */
struct PipelineModules
{
    const FileEncoder *encoder = nullptr;
    const FileDecoder *decoder = nullptr;
    const Channel *channel = nullptr;
    Clusterer *clusterer = nullptr;
    const Reconstructor *reconstructor = nullptr;

    /**
     * Optional secondary reconstructor for the recovery policy: when a
     * decode fails and retries are budgeted, the pipeline re-runs
     * reconstruction with this module.
     */
    const Reconstructor *fallback_reconstructor = nullptr;
};

/** Pipeline-level knobs. */
struct PipelineConfig
{
    CoverageModel coverage{10.0};
    /** Reconstruction parallelFor width (0 = the shared pool's size). */
    std::size_t num_threads = 1;
    std::uint64_t seed = 0x91e1157ULL; //!< Simulation RNG seed.
    /** Clusters smaller than this are discarded before reconstruction. */
    std::size_t min_cluster_size = 1;
    /**
     * Recovery budget: how many degraded decode retries to attempt when
     * the first decode fails (0 disables the recovery policy).
     */
    std::size_t max_decode_retries = 0;
    /** Faults to inject; each run builds its own injector from it. */
    FaultPlan faults;
};

/**
 * The end-to-end DNA storage pipeline.  Modules are borrowed, not
 * owned, and must outlive the pipeline.
 */
class Pipeline
{
  public:
    Pipeline(PipelineModules modules, PipelineConfig config);

    /**
     * Encode @p data, run it through the simulated wetlab, cluster,
     * reconstruct and decode.  Never throws: missing modules and module
     * exceptions are recorded in PipelineResult::errors and the stage
     * statuses, and the pipeline continues with whatever survived.
     */
    PipelineResult run(const std::vector<std::uint8_t> &data);

    /**
     * Variant that skips the simulation stage and consumes externally
     * produced reads (e.g. preprocessed wetlab FASTQ, Section VIII).
     * @p expected_units may be 0 (infer from indices).  Never throws
     * (same contract as run()).  @p reads is consumed: pass an rvalue
     * to spare the copy.
     */
    PipelineResult runFromReads(std::vector<Strand> reads,
                                std::size_t strand_length,
                                std::size_t expected_units = 0);

  private:
    /** @p faults is this run's injector, null when the plan is empty. */
    void runImpl(const std::vector<std::uint8_t> &data, FaultInjector *faults,
                 PipelineResult &result);

    /**
     * Shared retrieval half (clustering -> reconstruction -> decoding
     * -> recovery).  Consumes @p reads (each moves into its cluster)
     * and drops malformed ones from @p origins in step.  @p origins /
     * @p ground_truth are null outside simulation; @p faults as in
     * runImpl().
     */
    void retrieve(std::vector<Strand> reads,
                  std::vector<std::uint32_t> *origins,
                  const std::vector<Strand> *ground_truth,
                  std::size_t strand_length, std::size_t expected_units,
                  FaultInjector *faults, PipelineResult &result);

    PipelineModules mods;
    PipelineConfig cfg;
    Rng rng;
};

} // namespace dnastore

