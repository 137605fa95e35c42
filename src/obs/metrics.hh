/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket histograms
 * that every pipeline module publishes into (observability layer, see
 * docs/OBSERVABILITY.md).
 *
 * Handles returned by MetricsRegistry::counter()/gauge()/histogram()
 * are stable for the registry's lifetime, and every update is one
 * relaxed atomic operation — safe to call from thread-pool workers
 * without extra locking.  Registration (the name lookup) takes a mutex,
 * so hot paths fetch a handle once and update it many times, or
 * accumulate locally and publish totals at stage end.
 *
 * Metric names follow `module.noun_unit` (e.g.
 * `decoding.rs_symbols_corrected_total`); see docs/OBSERVABILITY.md for
 * the naming scheme.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/hot.hh"
#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace dnastore::obs
{

/** Monotonic counter (relaxed atomic increments). */
class Counter
{
  public:
    /** Add @p n to the counter.  Called from clusterer/decoder inner
     *  loops, so the R10 ratchet pins it at zero allocations. */
    DNASTORE_HOT void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current value. */
    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter (tests and benchmarks only). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written value plus a running maximum (e.g. queue depth). */
class Gauge
{
  public:
    /** Record @p v as the current value, tracking the maximum seen. */
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
        double seen = max_.load(std::memory_order_relaxed);
        while (v > seen &&
               !max_.compare_exchange_weak(seen, v,
                                           std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }
    double max() const { return max_.load(std::memory_order_relaxed); }

    /** Reset both current and maximum (tests and benchmarks only). */
    void
    reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
        max_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Histogram over fixed, caller-supplied bucket upper bounds.  A value v
 * lands in the first bucket whose bound satisfies v <= bound; values
 * above the last bound land in the implicit overflow bucket, so there
 * are bounds.size() + 1 buckets in total.  observe() is lock-free.
 */
class FixedHistogram
{
  public:
    /** @param upper_bounds non-empty, strictly increasing upper bounds. */
    explicit FixedHistogram(std::vector<double> upper_bounds);

    /** Count one observation. */
    void observe(double v);

    const std::vector<double> &upperBounds() const { return bounds_; }
    /** Buckets including the overflow bucket (bounds + 1 entries). */
    std::size_t numBuckets() const { return bins_.size(); }
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return bins_[i].load(std::memory_order_relaxed);
    }
    std::uint64_t
    totalCount() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    /** Sum of all observed values. */
    double sum() const;

    /** Zero all buckets (tests and benchmarks only). */
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> bins_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Point-in-time copy of one histogram. */
struct HistogramSnapshot
{
    std::vector<double> upper_bounds; //!< counts.size() == bounds + 1.
    std::vector<std::uint64_t> counts;
    std::uint64_t total_count = 0;
    double sum = 0.0;
};

/** Point-in-time copy of one gauge (value + running max). */
struct GaugeSnapshot
{
    double value = 0.0;
    double max = 0.0;
};

/**
 * Point-in-time copy of a whole registry.  Keys are metric names;
 * std::map keeps emission order deterministic (sorted), which the JSON
 * report layer relies on.
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, GaugeSnapshot> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /**
     * Per-run delta: counters and histogram buckets become (this -
     * before), clamped at zero; gauges are kept as-is (a gauge is a
     * level, not a total).  Metrics absent from @p before pass through
     * unchanged.
     */
    [[nodiscard]] MetricsSnapshot delta(const MetricsSnapshot &before) const;

    /** True when no metric is present at all. */
    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }
};

/**
 * Thread-safe registry of named metrics.  getOrCreate calls
 * (counter()/gauge()/histogram()) lock a mutex; returned references are
 * stable until the registry dies.
 */
class MetricsRegistry
{
  public:
    /** Find or create the named counter. */
    Counter &counter(std::string_view name);

    /** Find or create the named gauge. */
    Gauge &gauge(std::string_view name);

    /**
     * Find or create the named histogram.  @p upper_bounds is used only
     * on first creation; later calls return the existing histogram
     * regardless of the bounds passed.
     */
    FixedHistogram &histogram(std::string_view name,
                              std::vector<double> upper_bounds);

    /** Copy every metric into a snapshot (sorted by name). */
    [[nodiscard]] MetricsSnapshot snapshot() const;

    /** Zero every registered metric (tests and benchmarks only). */
    void resetAll();

  private:
    mutable Mutex mutex_{"obs.metrics_registry"};
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        DNASTORE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
        DNASTORE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<FixedHistogram>, std::less<>>
        histograms_ DNASTORE_GUARDED_BY(mutex_);
};

/**
 * The process-wide registry every built-in module publishes into.
 * Always exists, also during static destruction; snapshotting around
 * a region of interest and taking delta() isolates one run's metrics
 * from the process totals.
 */
MetricsRegistry &metrics();

/**
 * Approximate q-quantile (q in [0, 1]) of a histogram snapshot: the
 * upper bound of the first bucket whose cumulative count reaches
 * q * total.  Returns 0 for an empty histogram; observations in the
 * overflow bucket report the last finite bound (a floor, not a lie —
 * callers print it as ">= bound").
 */
[[nodiscard]] double histogramQuantile(const HistogramSnapshot &histogram,
                                       double q);

/** Convenient bucket ladder for latencies in seconds (1us .. 30s). */
std::vector<double> latencyBucketsSeconds();

/** Convenient bucket ladder for percentages (0..100 in steps of 10). */
std::vector<double> percentBuckets();

} // namespace dnastore::obs
