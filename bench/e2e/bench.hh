/**
 * @file
 * Shared vocabulary of the repository benchmark program (dnastore_bench):
 * run options, the metric report every workload fills, and the small
 * measurement helpers (clocks, quantiles, process CPU and RSS).
 *
 * The benchmark measures every layer from outside: it times calls into the
 * layer's public functions and never edits or hooks code under src/.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "e2e/trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace dnastore::bench
{

/** One benchmark invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0; //!< Measurement window.
    bool smoke = false;    //!< Tiny inputs: seconds-scale smoke test.
    std::string work_dir;  //!< Scratch space (archives) for this run.
    /** Traced run only: the benchmark's spans and the obs trace sink. */
    SpanRecorder *spans = nullptr;
    obs::TraceSink *obs_sink = nullptr;

    bool traced() const { return spans != nullptr; }
};

/** A measured value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports (serialised by dnastore_bench.cc). */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;
    std::map<std::string, Metric> metrics;
    /** Metrics a rerun with the same seed must reproduce exactly. */
    std::set<std::string> exact;
    /** Workload parameters, echoed so a result explains itself. */
    std::map<std::string, std::string> params;
    /** Consistency checks of the run (name -> held in every case). */
    std::map<std::string, bool> checks;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** set() for a value that is the same in every run with one seed. */
    void
    setExact(const std::string &name, double value, const std::string &unit)
    {
        set(name, value, unit);
        exact.insert(name);
    }

    /** Count one failed operation (wrong bytes, error reply, ...). */
    void fail(const std::string &why);

    /** Record a consistency check; one failure makes the run incorrect. */
    void check(const std::string &name, bool ok);
};

/**
 * Installs Options::obs_sink (when tracing) for the lifetime of the
 * scope, so the toolkit's own spans are captured for the measurement
 * window only.
 */
class TraceSinkScope
{
  public:
    explicit TraceSinkScope(const Options &options);
    ~TraceSinkScope();

    TraceSinkScope(const TraceSinkScope &) = delete;
    TraceSinkScope &operator=(const TraceSinkScope &) = delete;

  private:
    bool active_ = false;
};

/** Seconds on the monotonic clock (arbitrary epoch). */
double nowSeconds();

/** CPU seconds consumed by the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMib();

/**
 * Nearest-rank q-quantile (q in (0, 1]): the smallest sample with at
 * least a share q of the samples at or below it.  0 for no samples.
 */
double nearestRank(std::vector<double> values, double q);

/** Nearest-rank median. */
inline double
median(std::vector<double> values)
{
    return nearestRank(std::move(values), 0.5);
}

/**
 * Thread-pool attribution over a metrics delta: on-CPU share of pool
 * task time (sum of task CPU / sum of task wall) and mean queue wait.
 */
void setPoolMetrics(Report &report, const obs::MetricsSnapshot &delta);

/**
 * Stage times of the pipeline runs in a traced window, from the
 * toolkit's own spans: pipeline/run (Pipeline::run) or
 * pipeline/run_from_reads (one per archive shard decode) and the stage
 * spans (pipeline/clustering, ...) inside them.  cpu_util is the CPU
 * time of the thread driving a stage over its wall time, as in
 * PipelineResult::cpu.
 */
void setStageMetrics(Report &report,
                     const std::vector<obs::TraceEvent> &events);

/**
 * Work counts per pipeline run over a metrics delta (reads, clusters,
 * edit-distance calls, RS corrections, ...).  @p exact marks them as
 * repeating exactly for one seed.
 */
void setCountMetrics(Report &report, const obs::MetricsSnapshot &delta,
                     bool exact);

/**
 * A get's latency (due -> reply received) split at the fetch that served
 * it: queue = due -> fetch begin, fetch = -> fetch end, reply = -> done.
 * The three parts tile [due, done].
 */
struct LatencySplit
{
    double fetch_begin = 0.0;
    double fetch_end = 0.0;
};

/**
 * Split for a get due at @p due and answered at @p done, served by the
 * fetch that ran [@p start, @p end].  A get that joined the fetch while
 * it ran waited only for its rest; one that joined after the backend
 * returned (the scheduler claims waiters only then) waited for no fetch
 * at all, so its fetch part is empty and it is all reply.
 */
inline LatencySplit
splitLatency(double due, double start, double end, double done)
{
    LatencySplit split;
    split.fetch_end = std::clamp(end, due, done);
    split.fetch_begin = std::clamp(start, due, split.fetch_end);
    return split;
}

/** Workload entry points (table3.cc, serve.cc). */
void runTable3(const Options &options, Report &report);
void runServe(const Options &options, Report &report);

/**
 * Host description (host.cc) as one JSON object: hardware threads, CPU
 * affinity, cgroup CPU quota, 1-minute load average, build type and
 * compiler.
 */
void writeHost(obs::JsonWriter &json);

} // namespace dnastore::bench
