#include "core/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "clustering/accuracy.hh"
#include "obs/cpu_time.hh"
#include "obs/span.hh"
#include "simulator/sequencing_run.hh"
#include "util/assert.hh"
#include "util/thread_pool.hh"

namespace dnastore
{

namespace
{

/**
 * Publish one finished run's tallies into the metrics registry so the
 * run report and any scraping harness see them under stable names
 * (scheme `module.noun_unit`, docs/OBSERVABILITY.md).
 */
void
publishRunMetrics(const PipelineResult &result)
{
    obs::MetricsRegistry &reg = obs::metrics();
    reg.counter("pipeline.runs_total").add();
    reg.counter("pipeline.encoded_strands_total")
        .add(result.encoded_strands);
    reg.counter("pipeline.reads_total").add(result.reads);
    reg.counter("pipeline.clusters_total").add(result.clusters);
    reg.counter("pipeline.dropped_strands_total")
        .add(result.dropped_strands);
    reg.counter("pipeline.dropped_clusters_total")
        .add(result.dropped_clusters);
    reg.counter("pipeline.malformed_reads_total")
        .add(result.malformed_reads);
    reg.counter("pipeline.errors_total").add(result.errors.size());
    reg.counter("pipeline.recovery_attempts_total")
        .add(result.recovery_attempts.size());
    if (result.recovered)
        reg.counter("pipeline.recovered_runs_total").add();
    if (!result.report.ok)
        reg.counter("pipeline.decode_failures_total").add();

    const FaultCounters &faults = result.faults;
    reg.counter("fault.dropped_strands_total").add(faults.dropped_strands);
    reg.counter("fault.truncated_reads_total").add(faults.truncated_reads);
    reg.counter("fault.elongated_reads_total").add(faults.elongated_reads);
    reg.counter("fault.corrupted_indices_total")
        .add(faults.corrupted_indices);
    reg.counter("fault.duplicate_conflicts_total")
        .add(faults.duplicate_conflicts);
    reg.counter("fault.garbage_reads_total").add(faults.garbage_reads);
    reg.counter("fault.emptied_clusters_total")
        .add(faults.emptied_clusters);
    reg.counter("fault.merged_clusters_total").add(faults.merged_clusters);
}

void
addError(PipelineResult &result, const char *stage, std::string message)
{
    result.errors.push_back(PipelineError{stage, std::move(message)});
}

/** Worst-of combiner: a stage already failed stays failed. */
void
degradeTo(StageStatus &status, StageStatus floor)
{
    if (static_cast<std::uint8_t>(floor) >
        static_cast<std::uint8_t>(status)) {
        status = floor;
    }
}

/**
 * One stage's instrumentation: opens the stage's trace span and adds
 * the wall and thread-CPU time of that same interval into the stage's
 * PipelineResult latency/cpu fields.
 */
class StageScope
{
  public:
    StageScope(const char *span, double &latency, double &cpu)
        : span_(span), latency_(&latency), cpu_(&cpu)
    {
    }

    ~StageScope() { charge(); }

    /**
     * Charge the time so far to the current fields and the rest of the
     * scope to @p latency / @p cpu (a recovery attempt reconstructs,
     * then decodes, inside one span).
     */
    void
    chargeTo(double &latency, double &cpu)
    {
        charge();
        latency_ = &latency;
        cpu_ = &cpu;
    }

  private:
    using Clock = std::chrono::steady_clock;

    void
    charge()
    {
        const Clock::time_point wall_now = Clock::now();
        const std::uint64_t cpu_now = obs::threadCpuNanos();
        *latency_ +=
            std::chrono::duration<double>(wall_now - wall_start_).count();
        if (cpu_now > cpu_start_)
            *cpu_ += static_cast<double>(cpu_now - cpu_start_) * 1e-9;
        wall_start_ = wall_now;
        cpu_start_ = cpu_now;
    }

    obs::Span span_;
    double *latency_;
    double *cpu_;
    Clock::time_point wall_start_ = Clock::now();
    std::uint64_t cpu_start_ = obs::threadCpuNanos();
};

/**
 * The shell both entry points share: metrics and contention deltas
 * around @p body, the run's own injector when @p plan has faults, a
 * catch-all that turns any escaped exception into a pipeline error,
 * and the published run tallies.
 */
PipelineResult
instrumentedRun(
    const char *span_name, const FaultPlan &plan,
    const std::function<void(FaultInjector *, PipelineResult &)> &body)
{
    PipelineResult result;
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const obs::locktime::ContentionSnapshot contention_before =
        obs::locktime::contentionSnapshot();
    std::optional<FaultInjector> faults;
    {
        obs::Span run_span(span_name);
        try {
            if (plan.any())
                faults.emplace(plan);
            body(faults ? &*faults : nullptr, result);
        } catch (const std::exception &error) {
            addError(result, "pipeline", error.what());
        } catch (...) {
            addError(result, "pipeline", "unknown exception");
        }
    }
    if (faults)
        result.faults = faults->counters();
    publishRunMetrics(result);
    result.metrics = obs::metrics().snapshot().delta(before);
    result.contention =
        obs::locktime::contentionSnapshot().delta(contention_before);
    return result;
}

/** Record one error per absent module; true when any is missing. */
bool
missingModules(PipelineResult &result,
               std::initializer_list<std::pair<const char *, bool>> modules)
{
    bool missing = false;
    for (const auto &[module, present] : modules) {
        if (!present) {
            addError(result, "pipeline",
                     std::string("missing module: ") + module);
            missing = true;
        }
    }
    return missing;
}

/**
 * Reconstruct the selected groups, salvaging what it can: a module
 * exception fails only the offending cluster, not the stage.  Returns
 * the consensus strands plus, aligned with them, the index of the
 * source group within @p groups.  The outcome is the same at every
 * thread count.
 */
std::pair<std::vector<Strand>, std::vector<std::size_t>>
reconstructSalvaging(const Reconstructor &algo,
                     const std::vector<std::vector<Strand>> &groups,
                     const std::vector<std::size_t> &selection,
                     std::size_t strand_length, std::size_t num_threads,
                     PipelineResult &result)
{
    std::vector<std::optional<Strand>> outcome(selection.size());
    std::vector<std::string> failure(selection.size());
    parallelFor(num_threads, selection.size(), [&](std::size_t i) {
        obs::Span cluster_span("reconstruction/cluster");
        try {
            outcome[i] = algo.reconstruct(groups[selection[i]],
                                          strand_length);
        } catch (const std::exception &error) {
            failure[i] = error.what();
        } catch (...) {
            failure[i] = "unknown exception";
        }
    });

    std::vector<Strand> consensus;
    std::vector<std::size_t> kept;
    consensus.reserve(selection.size());
    kept.reserve(selection.size());
    std::size_t failures = 0;
    std::string first_failure;
    std::uint64_t reads_seen = 0;
    for (std::size_t i = 0; i < selection.size(); ++i) {
        reads_seen += groups[selection[i]].size();
        if (outcome[i]) {
            consensus.push_back(std::move(*outcome[i]));
            kept.push_back(selection[i]);
        } else if (++failures == 1) {
            first_failure = std::move(failure[i]);
        }
    }
    if (failures > 0) {
        addError(result, "reconstruction",
                 std::to_string(failures) + " cluster(s) failed to "
                 "reconstruct (first: " + first_failure + ")");
        degradeTo(result.status.reconstruction,
                  consensus.empty() ? StageStatus::Failed
                                    : StageStatus::Degraded);
    }
    obs::metrics()
        .counter("reconstruction.clusters_total")
        .add(selection.size());
    obs::metrics().counter("reconstruction.reads_total").add(reads_seen);
    return {std::move(consensus), std::move(kept)};
}

/** Decode with the stage-boundary catch; a throw reports ok = false. */
DecodeReport
decodeGuarded(const FileDecoder &decoder, const std::vector<Strand> &strands,
              std::size_t expected_units, PipelineResult &result)
{
    try {
        return decoder.decode(strands, expected_units);
    } catch (const std::exception &error) {
        addError(result, "decoding", error.what());
    } catch (...) {
        addError(result, "decoding", "unknown exception");
    }
    degradeTo(result.status.decoding, StageStatus::Failed);
    return DecodeReport{};
}

} // namespace

const char *
stageStatusName(StageStatus status)
{
    switch (status) {
      case StageStatus::Skipped: return "skipped";
      case StageStatus::Ok: return "ok";
      case StageStatus::Degraded: return "degraded";
      case StageStatus::Failed: return "failed";
    }
    return "unknown";
}

bool
StageStatusSet::anyFailed() const
{
    return encoding == StageStatus::Failed ||
        simulation == StageStatus::Failed ||
        clustering == StageStatus::Failed ||
        reconstruction == StageStatus::Failed ||
        decoding == StageStatus::Failed;
}

bool
StageStatusSet::anyDegraded() const
{
    const auto bad = [](StageStatus s) {
        return s == StageStatus::Degraded || s == StageStatus::Failed;
    };
    return bad(encoding) || bad(simulation) || bad(clustering) ||
        bad(reconstruction) || bad(decoding);
}

Pipeline::Pipeline(PipelineModules modules, PipelineConfig config)
    : mods(modules), cfg(std::move(config)), rng(cfg.seed)
{
}

PipelineResult
Pipeline::run(const std::vector<std::uint8_t> &data)
{
    return instrumentedRun(
        "pipeline/run", cfg.faults,
        [&](FaultInjector *faults, PipelineResult &result) {
            runImpl(data, faults, result);
        });
}

void
Pipeline::runImpl(const std::vector<std::uint8_t> &data,
                  FaultInjector *faults, PipelineResult &result)
{
    if (missingModules(result,
                       {{"encoder", mods.encoder != nullptr},
                        {"decoder", mods.decoder != nullptr},
                        {"channel", mods.channel != nullptr},
                        {"clusterer", mods.clusterer != nullptr},
                        {"reconstructor", mods.reconstructor != nullptr}})) {
        result.status.encoding = StageStatus::Failed;
        return;
    }

    // Stage 1: encoding (+ ECC).
    std::vector<Strand> encoded;
    try {
        StageScope stage("pipeline/encoding", result.latency.encoding,
                         result.cpu.encoding);
        encoded = mods.encoder->encode(data);
        result.status.encoding = StageStatus::Ok;
    } catch (const std::exception &error) {
        addError(result, "encoding", error.what());
        result.status.encoding = StageStatus::Failed;
        return; // nothing was synthesised; downstream stages are moot
    } catch (...) {
        addError(result, "encoding", "unknown exception");
        result.status.encoding = StageStatus::Failed;
        return;
    }
    result.encoded_strands = encoded.size();
    if (encoded.empty())
        return;
    const std::size_t strand_length = encoded.front().size();

    // Synthesis faults: some strands never make it into the pool.
    if (faults) {
        faults->injectStrands(encoded);
        if (faults->counters().dropped_strands > 0)
            degradeTo(result.status.encoding, StageStatus::Degraded);
    }

    // Stage 2: wetlab simulation (synthesis, storage, sequencing).
    SequencingRun run;
    try {
        StageScope stage("pipeline/simulation", result.latency.simulation,
                         result.cpu.simulation);
        run = simulateSequencing(encoded, *mods.channel, cfg.coverage, rng,
                                 true, cfg.num_threads);
        result.status.simulation = StageStatus::Ok;
    } catch (const std::exception &error) {
        addError(result, "simulation", error.what());
        result.status.simulation = StageStatus::Failed;
        // Continue with zero reads: decode will fail, but gracefully.
    } catch (...) {
        addError(result, "simulation", "unknown exception");
        result.status.simulation = StageStatus::Failed;
    }
    result.dropped_strands = run.dropped_strands;

    // Sequencing faults: truncation, elongation, corrupt indices, junk.
    if (faults) {
        const std::size_t before = faults->counters().total();
        faults->injectReads(run.reads, &run.origin);
        if (faults->counters().total() > before)
            degradeTo(result.status.simulation, StageStatus::Degraded);
    }
    result.reads = run.reads.size();

    retrieve(std::move(run.reads), &run.origin, &encoded, strand_length,
             mods.encoder->unitsForSize(data.size()), faults, result);
}

PipelineResult
Pipeline::runFromReads(std::vector<Strand> reads, std::size_t strand_length,
                       std::size_t expected_units)
{
    return instrumentedRun(
        "pipeline/run_from_reads", cfg.faults,
        [&](FaultInjector *faults, PipelineResult &result) {
            if (missingModules(
                    result,
                    {{"decoder", mods.decoder != nullptr},
                     {"clusterer", mods.clusterer != nullptr},
                     {"reconstructor", mods.reconstructor != nullptr}})) {
                result.status.clustering = StageStatus::Failed;
                return;
            }
            if (faults && faults->plan().anyReadFaults())
                faults->injectReads(reads);
            result.reads = reads.size();
            retrieve(std::move(reads), nullptr, nullptr, strand_length,
                     expected_units, faults, result);
        });
}

void
Pipeline::retrieve(std::vector<Strand> reads,
                   std::vector<std::uint32_t> *origins,
                   const std::vector<Strand> *ground_truth,
                   std::size_t strand_length, std::size_t expected_units,
                   FaultInjector *faults, PipelineResult &result)
{
    // Pre-clustering sanitation: wetlab data (and the garbage-read
    // fault) contains empty or non-ACGT reads that the similarity
    // machinery downstream is not obliged to handle.  Filter them here
    // and account for every rejected read.
    std::vector<char> malformed(reads.size());
    parallelFor(cfg.num_threads, reads.size(), [&](std::size_t i) {
        malformed[i] = reads[i].empty() || !strand::isValid(reads[i]);
    });
    std::size_t valid = 0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
        if (malformed[i]) {
            ++result.malformed_reads;
            continue;
        }
        if (valid != i) {
            reads[valid] = std::move(reads[i]);
            if (origins)
                (*origins)[valid] = (*origins)[i];
        }
        ++valid;
    }
    reads.resize(valid);
    if (origins)
        origins->resize(valid);

    // Stage 3: clustering.
    Clustering clustering;
    try {
        StageScope stage("pipeline/clustering", result.latency.clustering,
                         result.cpu.clustering);
        clustering = mods.clusterer->cluster(reads);
        result.status.clustering = StageStatus::Ok;
    } catch (const std::exception &error) {
        addError(result, "clustering", error.what());
        result.status.clustering = StageStatus::Failed;
    } catch (...) {
        addError(result, "clustering", "unknown exception");
        result.status.clustering = StageStatus::Failed;
    }
    // A module's indices are untrusted input: one past the reads would
    // index out of bounds below, so it counts as a failed clustering.
    const auto out_of_range = [&](const std::vector<std::uint32_t> &c) {
        return std::any_of(c.begin(), c.end(), [&](std::uint32_t idx) {
            return idx >= reads.size();
        });
    };
    if (result.status.clustering == StageStatus::Ok &&
        std::any_of(clustering.clusters.begin(), clustering.clusters.end(),
                    out_of_range)) {
        addError(result, "clustering",
                 "clusterer returned a read index out of range");
        result.status.clustering = StageStatus::Failed;
    }
    if (result.status.clustering == StageStatus::Failed) {
        // Fallback: every read is its own cluster.  Costly downstream
        // but keeps the decode alive — duplicate indices are resolved
        // by the decoder's majority vote.
        clustering.clusters.resize(reads.size());
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(reads.size()); ++i) {
            clustering.clusters[i] = {i};
        }
    }
    result.clusters = clustering.numClusters();
    if (result.malformed_reads > 0)
        degradeTo(result.status.clustering, StageStatus::Degraded);
    if (origins) {
        try {
            result.clustering_accuracy =
                clusteringAccuracy(clustering, *origins);
        } catch (const std::exception &error) {
            addError(result, "clustering",
                     std::string("accuracy evaluation failed: ") +
                         error.what());
        }
    }

    // Materialise every non-empty cluster; size filtering happens per
    // decode attempt so the recovery policy can relax it.  Each read
    // moves into its group; one listed in several clusters is copied
    // into all but the last of them.
    std::vector<std::uint32_t> uses(reads.size(), 0);
    for (const auto &cluster : clustering.clusters)
        for (std::uint32_t idx : cluster)
            ++uses[idx];
    std::vector<std::vector<Strand>> groups;
    std::vector<std::vector<std::uint32_t>> group_origins;
    groups.reserve(clustering.clusters.size());
    for (const auto &cluster : clustering.clusters) {
        if (cluster.empty())
            continue;
        std::vector<Strand> group;
        std::vector<std::uint32_t> group_origin;
        group.reserve(cluster.size());
        for (std::uint32_t idx : cluster) {
            if (--uses[idx] == 0)
                group.push_back(std::move(reads[idx]));
            else
                group.push_back(reads[idx]);
            if (origins)
                group_origin.push_back((*origins)[idx]);
        }
        groups.push_back(std::move(group));
        group_origins.push_back(std::move(group_origin));
    }

    // Clustering faults: emptied and merged groups.
    if (faults && faults->plan().anyClusterFaults()) {
        const std::size_t before = faults->counters().total();
        faults->injectClusters(groups, &group_origins);
        if (faults->counters().total() > before)
            degradeTo(result.status.clustering, StageStatus::Degraded);
    }

    const std::size_t min_size =
        std::max<std::size_t>(1, cfg.min_cluster_size);
    const auto select = [&](std::size_t min) {
        std::vector<std::size_t> selection;
        selection.reserve(groups.size());
        for (std::size_t g = 0; g < groups.size(); ++g)
            if (!groups[g].empty() && groups[g].size() >= min)
                selection.push_back(g);
        return selection;
    };
    const std::vector<std::size_t> selection = select(min_size);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (!groups[g].empty() && groups[g].size() < min_size)
            ++result.dropped_clusters;
    }
    if (result.dropped_clusters > 0)
        degradeTo(result.status.clustering, StageStatus::Degraded);

    // Stage 4: trace reconstruction (salvaging cluster failures).
    result.status.reconstruction = StageStatus::Ok;
    auto [reconstructed, kept] = [&] {
        StageScope stage("pipeline/reconstruction",
                         result.latency.reconstruction,
                         result.cpu.reconstruction);
        return reconstructSalvaging(*mods.reconstructor, groups, selection,
                                    strand_length, cfg.num_threads, result);
    }();

    // Ground-truth reconstruction quality: a cluster reconstructs
    // "perfectly" when its consensus equals the encoded strand that a
    // majority of its reads came from.  Each encoded strand counts
    // once, however many clusters it was split into.
    if (ground_truth && origins && !ground_truth->empty()) {
        std::vector<bool> counted(ground_truth->size(), false);
        std::size_t perfect = 0;
        for (std::size_t i = 0; i < reconstructed.size(); ++i) {
            const auto &origin_list = group_origins[kept[i]];
            if (origin_list.empty())
                continue;
            std::unordered_map<std::uint32_t, std::size_t> votes;
            for (std::uint32_t origin : origin_list)
                ++votes[origin];
            std::uint32_t majority = origin_list.front();
            std::size_t best = 0;
            for (const auto &[origin, count] : votes) {
                if (count > best) {
                    best = count;
                    majority = origin;
                }
            }
            if (majority < ground_truth->size() && !counted[majority] &&
                reconstructed[i] == (*ground_truth)[majority]) {
                counted[majority] = true;
                ++perfect;
            }
        }
        result.perfect_reconstructions = result.encoded_strands == 0
            ? 0.0
            : static_cast<double>(perfect) /
                static_cast<double>(result.encoded_strands);
    }

    // Stage 5: decoding and error correction.
    result.status.decoding = StageStatus::Ok;
    {
        StageScope stage("pipeline/decoding", result.latency.decoding,
                         result.cpu.decoding);
        result.report = decodeGuarded(*mods.decoder, reconstructed,
                                      expected_units, result);
    }

    // Recovery policy: bounded retries with degraded settings.
    std::size_t budget = cfg.max_decode_retries;
    const auto attempt = [&](const std::string &description,
                             const Reconstructor &algo, std::size_t min) {
        StageScope stage("pipeline/recovery_attempt",
                         result.latency.reconstruction,
                         result.cpu.reconstruction);
        const std::vector<Strand> consensus =
            reconstructSalvaging(algo, groups, select(min), strand_length,
                                 cfg.num_threads, result)
                .first;
        stage.chargeTo(result.latency.decoding, result.cpu.decoding);
        DecodeReport report =
            decodeGuarded(*mods.decoder, consensus, expected_units, result);
        result.recovery_attempts.push_back(RecoveryAttempt{
            description, report.ok, report.failed_rows});
        if (report.ok) {
            result.report = std::move(report);
            result.recovered = true;
        }
    };
    if (!result.report.ok && budget > 0 && min_size > 1) {
        attempt("min_cluster_size " + std::to_string(min_size) + " -> 1",
                *mods.reconstructor, 1);
        --budget;
    }
    if (!result.report.ok && budget > 0 && mods.fallback_reconstructor) {
        attempt("fallback reconstructor " +
                    mods.fallback_reconstructor->name(),
                *mods.fallback_reconstructor, min_size);
        --budget;
    }
    if (!result.report.ok && budget > 0 && mods.fallback_reconstructor &&
        min_size > 1) {
        attempt("fallback reconstructor " +
                    mods.fallback_reconstructor->name() +
                    " + min_cluster_size 1",
                *mods.fallback_reconstructor, 1);
        --budget;
    }

    if (!result.report.ok) {
        degradeTo(result.status.decoding, StageStatus::Failed);
    } else if (result.recovered || result.report.failed_rows > 0 ||
               result.report.malformed_strands > 0 ||
               result.report.conflicting_strands > 0) {
        degradeTo(result.status.decoding, StageStatus::Degraded);
    }

    // Stage-status taxonomy invariants: retrieval always runs the
    // clustering, reconstruction and decoding stages (fallbacks keep
    // them alive), recovery respects its budget and only a successful
    // retry may mark the run as recovered.
    DNASTORE_ASSERT(result.status.clustering != StageStatus::Skipped &&
                        result.status.reconstruction !=
                            StageStatus::Skipped &&
                        result.status.decoding != StageStatus::Skipped,
                    "retrieve() must assign every retrieval stage status");
    DNASTORE_ASSERT(result.recovery_attempts.size() <=
                        cfg.max_decode_retries,
                    "recovery policy exceeded its retry budget");
    DNASTORE_ASSERT(!result.recovered || result.report.ok,
                    "recovered runs must carry a successful report");
}

} // namespace dnastore
