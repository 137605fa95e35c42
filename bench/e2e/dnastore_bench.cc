/**
 * @file
 * dnastore_bench — the repository benchmark program.  Runs one workload
 * in this process and prints one JSON report line (schema
 * dnastore.bench_e2e) as the last line of standard output.
 *
 *   dnastore_bench --workload=NAME --seed=N --seconds=S
 *                  [--trace-dir=DIR] [--work-dir=DIR] [--smoke]
 *
 * Workloads: table3_nwa_c50, table3_dbma_c50, serve_hot, serve_cold_rw
 * (bench/e2e/README.md says what each stresses and why).  --trace-dir
 * makes a traced run: per-layer metrics, the benchmark's spans
 * (spans.json) and the toolkit's own spans as a Chrome trace
 * (obs_trace.json).  Exit status 0 when every output was correct, 1
 * otherwise, 2 on bad usage.
 *
 * bench/e2e/run_bench.py builds this program and is the supported way
 * to run it.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "e2e/bench.hh"
#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "util/args.hh"

namespace dnastore::bench
{

void
Report::fail(const std::string &why)
{
    ++failed;
    correct = false;
    if (first_error.empty())
        first_error = why;
}

void
Report::check(const std::string &name, bool ok)
{
    auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh)
        it->second = it->second && ok;
    if (!ok) {
        correct = false;
        if (first_error.empty())
            first_error = "check failed: " + name;
    }
}

TraceSinkScope::TraceSinkScope(const Options &options)
    : active_(options.obs_sink != nullptr)
{
    if (active_)
        obs::installTraceSink(options.obs_sink);
}

TraceSinkScope::~TraceSinkScope()
{
    if (active_)
        obs::installTraceSink(nullptr);
}

double
nowSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
nearestRank(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

void
setPoolMetrics(Report &report, const obs::MetricsSnapshot &delta)
{
    const auto histogram = [&](const char *name) {
        const auto it = delta.histograms.find(name);
        return it == delta.histograms.end() ? obs::HistogramSnapshot{}
                                            : it->second;
    };
    const obs::HistogramSnapshot cpu =
        histogram("util.thread_pool.task_cpu_seconds");
    const obs::HistogramSnapshot wall =
        histogram("util.thread_pool.task_seconds");
    const obs::HistogramSnapshot wait =
        histogram("util.thread_pool.queue_wait_seconds");
    report.set("util.pool_on_cpu_frac",
               wall.sum > 0.0 ? cpu.sum / wall.sum : 0.0, "ratio");
    report.set("util.pool_queue_wait_mean_s",
               wait.total_count > 0
                   ? wait.sum / static_cast<double>(wait.total_count)
                   : 0.0,
               "s");
}

void
setStageMetrics(Report &report, const std::vector<obs::TraceEvent> &events)
{
    std::map<std::uint32_t, std::vector<const obs::TraceEvent *>> by_tid;
    for (const obs::TraceEvent &e : events)
        by_tid[e.tid].push_back(&e);
    const auto is = [](const obs::TraceEvent *e, const char *name) {
        return std::strcmp(e->name, name) == 0;
    };
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, double> cpu;
    std::map<std::string, double> wall;
    std::vector<double> runs;
    std::vector<double> glue;
    for (const auto &[tid, list] : by_tid) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            const obs::TraceEvent *e = list[i];
            const double dur = static_cast<double>(e->dur_us) * 1e-6;
            durations[e->name].push_back(dur);
            cpu[e->name] += static_cast<double>(e->cpu_us) * 1e-6;
            wall[e->name] += dur;
            if (!is(e, "pipeline/run") && !is(e, "pipeline/run_from_reads"))
                continue;
            // Events are sorted by start, so a run's stages follow it on
            // its thread until one starts after the run ended.
            double stages = 0.0;
            const std::uint64_t end = e->ts_us + e->dur_us;
            for (std::size_t j = i + 1;
                 j < list.size() && list[j]->ts_us < end; ++j) {
                const obs::TraceEvent *c = list[j];
                if (is(c, "pipeline/encoding") ||
                    is(c, "pipeline/simulation") ||
                    is(c, "pipeline/clustering") ||
                    is(c, "pipeline/reconstruction") ||
                    is(c, "pipeline/decoding") ||
                    is(c, "pipeline/recovery_attempt"))
                    stages += static_cast<double>(c->dur_us) * 1e-6;
            }
            runs.push_back(dur);
            glue.push_back(dur - stages);
        }
    }
    const auto med = [&](const char *name) {
        return median(durations[name]);
    };
    const auto util = [&](const char *name) {
        return wall[name] > 0.0 ? cpu[name] / wall[name] : 0.0;
    };
    report.set("core.run_s", median(runs), "s");
    report.set("core.glue_s", median(glue), "s");
    report.set("simulator.sequencing_s", med("simulation/sequencing_run"),
               "s");
    report.set("clustering.cluster_s", med("pipeline/clustering"), "s");
    report.set("clustering.cpu_util", util("pipeline/clustering"), "ratio");
    report.set("reconstruction.reconstruct_s", med("pipeline/reconstruction"),
               "s");
    report.set("reconstruction.cpu_util", util("pipeline/reconstruction"),
               "ratio");
    report.set("codec.decode_s", med("pipeline/decoding"), "s");
}

void
setCountMetrics(Report &report, const obs::MetricsSnapshot &delta, bool exact)
{
    const auto counter = [&](const char *name) {
        const auto it = delta.counters.find(name);
        return it == delta.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
    };
    const double runs = std::max(1.0, counter("pipeline.runs_total"));
    const auto per_run = [&](const char *metric, const char *name) {
        if (exact)
            report.setExact(metric, counter(name) / runs, "count");
        else
            report.set(metric, counter(name) / runs, "count");
    };
    per_run("simulator.reads", "pipeline.reads_total");
    per_run("clustering.clusters", "pipeline.clusters_total");
    per_run("clustering.edit_distance_calls",
            "clustering.edit_distance_calls_total");
    per_run("reconstruction.clusters_in", "reconstruction.clusters_total");
    per_run("codec.rs_corrected", "decoding.rs_symbols_corrected_total");
    per_run("codec.rs_failed_rows", "decoding.rs_rows_failed_total");
    per_run("codec.rs_erasures", "decoding.rs_erasures_total");
}

namespace
{

std::string
reportJson(const Options &options, const Report &report)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("dnastore.bench_e2e");
    json.key("workload");
    json.value(options.workload);
    json.key("seed");
    json.value(options.seed);
    json.key("seconds");
    json.value(options.seconds);
    json.key("traced");
    json.value(options.traced());
    json.key("host");
    writeHost(json);
    json.key("params");
    json.beginObject();
    for (const auto &[name, value] : report.params) {
        json.key(name);
        json.value(value);
    }
    json.endObject();
    json.key("correct");
    json.value(report.correct);
    json.key("attempted");
    json.value(report.attempted);
    json.key("failed");
    json.value(report.failed);
    json.key("first_error");
    json.value(report.first_error);
    json.key("checks");
    json.beginObject();
    for (const auto &[name, ok] : report.checks) {
        json.key(name);
        json.value(ok);
    }
    json.endObject();
    json.key("exact");
    json.beginArray();
    for (const std::string &name : report.exact)
        json.value(name);
    json.endArray();
    json.key("metrics");
    json.beginObject();
    for (const auto &[name, metric] : report.metrics) {
        json.key(name);
        json.beginObject();
        json.key("value");
        json.value(metric.value);
        json.key("unit");
        json.value(metric.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    return json.text();
}

int
usage()
{
    std::cerr << "usage: dnastore_bench --workload=NAME --seed=N "
                 "--seconds=S [--trace-dir=DIR]\n"
                 "                      [--work-dir=DIR] [--smoke]\n"
                 "workloads: table3_nwa_c50 table3_dbma_c50 serve_hot "
                 "serve_cold_rw\n";
    return 2;
}

int
run(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    Options options;
    options.workload = args.get("workload", "");
    options.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    options.seconds = args.getDouble("seconds", 20.0);
    options.smoke = args.getBool("smoke", false);
    const bool table3 = options.workload == "table3_nwa_c50" ||
                        options.workload == "table3_dbma_c50";
    const bool serve = options.workload == "serve_hot" ||
                       options.workload == "serve_cold_rw";
    if ((!table3 && !serve) || options.seconds <= 0.0)
        return usage();

    options.work_dir = args.get(
        "work-dir", ".bench_work/" + options.workload + "-" +
                        std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
    const std::string trace_dir = args.get("trace-dir", "");
    SpanRecorder spans;
    obs::TraceSink sink;
    if (!trace_dir.empty()) {
        std::filesystem::create_directories(trace_dir, ec);
        options.spans = &spans;
        options.obs_sink = &sink;
    }

    Report report;
    if (table3)
        runTable3(options, report);
    else
        runServe(options, report);

    if (options.traced()) {
        if (!spans.write(trace_dir + "/spans.json"))
            report.fail("could not write " + trace_dir + "/spans.json");
        if (!obs::writeChromeTrace(sink, trace_dir + "/obs_trace.json"))
            report.fail("could not write " + trace_dir + "/obs_trace.json");
    }
    std::filesystem::remove_all(options.work_dir, ec);
    std::cout << reportJson(options, report) << std::endl;
    return report.correct ? 0 : 1;
}

} // namespace

} // namespace dnastore::bench

int
main(int argc, char **argv)
{
    try {
        return dnastore::bench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "dnastore_bench: " << e.what() << "\n";
        return 2;
    }
}
