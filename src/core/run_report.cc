#include "core/run_report.hh"

#include "obs/json.hh"
#include "obs/lock_timing.hh"
#include "obs/report.hh"

namespace dnastore
{

namespace
{

void
writeStage(obs::JsonWriter &json, const char *name, StageStatus status,
           double seconds, double cpu_seconds)
{
    json.key(name);
    json.beginObject();
    json.key("cpu_seconds");
    json.value(cpu_seconds);
    json.key("seconds");
    json.value(seconds);
    json.key("status");
    json.value(stageStatusName(status));
    json.key("utilization");
    // cpu/wall of the driving thread; sub-resolution stages report 0
    // rather than a division-noise ratio.
    json.value(seconds > 0.0 ? cpu_seconds / seconds : 0.0);
    json.endObject();
}

void
writeContention(obs::JsonWriter &json,
                const obs::locktime::ContentionSnapshot &contention)
{
    json.beginObject();
    json.key("enabled");
    json.value(contention.enabled);
    json.key("mutexes");
    json.beginObject();
    for (const obs::locktime::MutexWaitSnapshot &m : contention.mutexes) {
        json.key(m.name);
        json.beginObject();
        json.key("count");
        json.value(m.total_count);
        json.key("counts");
        json.beginArray();
        for (const std::uint64_t c : m.counts)
            json.value(c);
        json.endArray();
        json.key("sum_seconds");
        json.value(m.sum_seconds);
        json.key("upper_bounds");
        json.beginArray();
        for (const double bound : obs::locktime::waitBucketBoundsSeconds())
            json.value(bound);
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.key("sample_every");
    json.value(std::uint64_t{contention.sample_every});
    json.endObject();
}

} // namespace

std::string
runReportJson(const PipelineResult &result, const RunInfo &info)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("dnastore.run_report");
    json.key("schema_version");
    json.value(std::int64_t{obs::kSchemaVersion});

    json.key("run");
    json.beginObject();
    for (const auto &[key, value] : info) {
        json.key(key);
        json.value(value);
    }
    json.endObject();

    json.key("stages");
    json.beginObject();
    const StageStatusSet &status = result.status;
    const StageLatency &latency = result.latency;
    const StageLatency &cpu = result.cpu;
    writeStage(json, "encoding", status.encoding, latency.encoding,
               cpu.encoding);
    writeStage(json, "simulation", status.simulation, latency.simulation,
               cpu.simulation);
    writeStage(json, "clustering", status.clustering, latency.clustering,
               cpu.clustering);
    writeStage(json, "reconstruction", status.reconstruction,
               latency.reconstruction, cpu.reconstruction);
    writeStage(json, "decoding", status.decoding, latency.decoding,
               cpu.decoding);
    json.key("total_cpu_seconds");
    json.value(cpu.total());
    json.key("total_seconds");
    json.value(latency.total());
    json.endObject();

    json.key("pipeline");
    json.beginObject();
    json.key("encoded_strands");
    json.value(std::uint64_t{result.encoded_strands});
    json.key("reads");
    json.value(std::uint64_t{result.reads});
    json.key("clusters");
    json.value(std::uint64_t{result.clusters});
    json.key("dropped_strands");
    json.value(std::uint64_t{result.dropped_strands});
    json.key("dropped_clusters");
    json.value(std::uint64_t{result.dropped_clusters});
    json.key("malformed_reads");
    json.value(std::uint64_t{result.malformed_reads});
    json.key("clustering_accuracy");
    json.value(result.clustering_accuracy);
    json.key("perfect_reconstructions");
    json.value(result.perfect_reconstructions);
    json.key("decode_ok");
    json.value(result.report.ok);
    json.key("decoded_bytes");
    json.value(std::uint64_t{result.report.data.size()});
    json.key("rs_total_rows");
    json.value(std::uint64_t{result.report.total_rows});
    json.key("rs_failed_rows");
    json.value(std::uint64_t{result.report.failed_rows});
    json.key("rs_corrected_errors");
    json.value(std::uint64_t{result.report.corrected_errors});
    json.key("rs_erased_columns");
    json.value(std::uint64_t{result.report.erased_columns});
    json.key("malformed_strands");
    json.value(std::uint64_t{result.report.malformed_strands});
    json.key("conflicting_strands");
    json.value(std::uint64_t{result.report.conflicting_strands});
    json.key("recovered");
    json.value(result.recovered);
    json.endObject();

    json.key("faults");
    json.beginObject();
    const FaultCounters &faults = result.faults;
    json.key("dropped_strands");
    json.value(std::uint64_t{faults.dropped_strands});
    json.key("truncated_reads");
    json.value(std::uint64_t{faults.truncated_reads});
    json.key("elongated_reads");
    json.value(std::uint64_t{faults.elongated_reads});
    json.key("corrupted_indices");
    json.value(std::uint64_t{faults.corrupted_indices});
    json.key("duplicate_conflicts");
    json.value(std::uint64_t{faults.duplicate_conflicts});
    json.key("garbage_reads");
    json.value(std::uint64_t{faults.garbage_reads});
    json.key("emptied_clusters");
    json.value(std::uint64_t{faults.emptied_clusters});
    json.key("merged_clusters");
    json.value(std::uint64_t{faults.merged_clusters});
    json.key("total");
    json.value(std::uint64_t{faults.total()});
    json.endObject();

    json.key("recovery_attempts");
    json.beginArray();
    for (const RecoveryAttempt &attempt : result.recovery_attempts) {
        json.beginObject();
        json.key("description");
        json.value(attempt.description);
        json.key("ok");
        json.value(attempt.ok);
        json.key("failed_rows");
        json.value(std::uint64_t{attempt.failed_rows});
        json.endObject();
    }
    json.endArray();

    json.key("errors");
    json.beginArray();
    for (const PipelineError &error : result.errors) {
        json.beginObject();
        json.key("stage");
        json.value(error.stage);
        json.key("message");
        json.value(error.message);
        json.endObject();
    }
    json.endArray();

    json.key("metrics");
    obs::writeMetricsValue(json, result.metrics);

    json.key("contention");
    writeContention(json, result.contention);

    json.endObject();
    return json.text();
}

bool
writeRunReport(const std::string &path, const PipelineResult &result,
               const RunInfo &info)
{
    return obs::writeTextFile(path, runReportJson(result, info));
}

} // namespace dnastore
