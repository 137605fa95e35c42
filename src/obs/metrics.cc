#include "obs/metrics.hh"

#include <algorithm>
#include <stdexcept>

namespace dnastore::obs
{

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      bins_(bounds_.size() + 1)
{
    if (bounds_.empty() ||
        !std::is_sorted(bounds_.begin(), bounds_.end()) ||
        std::adjacent_find(bounds_.begin(), bounds_.end()) !=
            bounds_.end()) {
        throw std::invalid_argument(
            "FixedHistogram: bucket bounds must be non-empty and "
            "strictly increasing");
    }
}

void
FixedHistogram::observe(double v)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    bins_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double seen = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(seen, seen + v,
                                       std::memory_order_relaxed)) {
    }
}

double
FixedHistogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

void
FixedHistogram::reset()
{
    for (auto &bin : bins_)
        bin.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &before) const
{
    MetricsSnapshot out;
    for (const auto &[name, value] : counters) {
        const auto it = before.counters.find(name);
        const std::uint64_t prior =
            it == before.counters.end() ? 0 : it->second;
        out.counters[name] = value >= prior ? value - prior : 0;
    }
    out.gauges = gauges;
    for (const auto &[name, hist] : histograms) {
        HistogramSnapshot d = hist;
        const auto it = before.histograms.find(name);
        if (it != before.histograms.end() &&
            it->second.counts.size() == d.counts.size()) {
            for (std::size_t i = 0; i < d.counts.size(); ++i) {
                const std::uint64_t prior = it->second.counts[i];
                d.counts[i] = d.counts[i] >= prior ? d.counts[i] - prior : 0;
            }
            d.total_count = d.total_count >= it->second.total_count
                ? d.total_count - it->second.total_count
                : 0;
            d.sum -= it->second.sum;
        }
        out.histograms[name] = std::move(d);
    }
    return out;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    MutexLock lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end())
        return *it->second;
    auto &slot = counters_[std::string(name)];
    slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    MutexLock lock(mutex_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end())
        return *it->second;
    auto &slot = gauges_[std::string(name)];
    slot = std::make_unique<Gauge>();
    return *slot;
}

FixedHistogram &
MetricsRegistry::histogram(std::string_view name,
                           std::vector<double> upper_bounds)
{
    MutexLock lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end())
        return *it->second;
    auto &slot = histograms_[std::string(name)];
    slot = std::make_unique<FixedHistogram>(std::move(upper_bounds));
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MutexLock lock(mutex_);
    MetricsSnapshot out;
    for (const auto &[name, counter] : counters_)
        out.counters[name] = counter->value();
    for (const auto &[name, gauge] : gauges_)
        out.gauges[name] = GaugeSnapshot{gauge->value(), gauge->max()};
    for (const auto &[name, hist] : histograms_) {
        HistogramSnapshot h;
        h.upper_bounds = hist->upperBounds();
        h.counts.reserve(hist->numBuckets());
        for (std::size_t i = 0; i < hist->numBuckets(); ++i)
            h.counts.push_back(hist->bucketCount(i));
        h.total_count = hist->totalCount();
        h.sum = hist->sum();
        out.histograms[name] = std::move(h);
    }
    return out;
}

void
MetricsRegistry::resetAll()
{
    MutexLock lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, gauge] : gauges_)
        gauge->reset();
    for (const auto &[name, hist] : histograms_)
        hist->reset();
}

MetricsRegistry &
metrics()
{
    // Never destroyed: the shared pool's workers outlive static
    // destruction and publish into it after every task.
    union Immortal
    {
        Immortal() : registry() {}
        ~Immortal() {}
        MetricsRegistry registry;
    };
    static Immortal immortal;
    return immortal.registry;
}

double
histogramQuantile(const HistogramSnapshot &histogram, double q)
{
    if (histogram.total_count == 0 || histogram.counts.empty())
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target =
        q * static_cast<double>(histogram.total_count);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
        cumulative += histogram.counts[i];
        if (static_cast<double>(cumulative) >= target) {
            // The overflow bucket has no bound; report the last finite
            // one as a floor.
            return i < histogram.upper_bounds.size()
                ? histogram.upper_bounds[i]
                : (histogram.upper_bounds.empty()
                       ? 0.0
                       : histogram.upper_bounds.back());
        }
    }
    return histogram.upper_bounds.empty() ? 0.0
                                          : histogram.upper_bounds.back();
}

std::vector<double>
latencyBucketsSeconds()
{
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0};
}

std::vector<double>
percentBuckets()
{
    return {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0};
}

} // namespace dnastore::obs
