#include "clustering/clusterer.hh"

#include <atomic>
#include <cmath>
#include <unordered_map>

#include "clustering/union_find.hh"
#include "dna/distance.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/hot.hh"
#include "util/sync.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"

namespace dnastore
{

namespace
{

/** Process-wide clustering counters, published once per cluster() call. */
struct ClusteringMetrics
{
    obs::Counter &runs = obs::metrics().counter("clustering.runs_total");
    obs::Counter &reads = obs::metrics().counter("clustering.reads_total");
    obs::Counter &clusters =
        obs::metrics().counter("clustering.clusters_total");
    obs::Counter &rounds = obs::metrics().counter("clustering.rounds_total");
    obs::Counter &signature_comparisons =
        obs::metrics().counter("clustering.signature_comparisons_total");
    obs::Counter &edit_calls =
        obs::metrics().counter("clustering.edit_distance_calls_total");
    obs::Counter &merges = obs::metrics().counter("clustering.merges_total");
    obs::Counter &filter_rejections =
        obs::metrics().counter("clustering.filter_rejections_total");
    obs::FixedHistogram &cluster_size = obs::metrics().histogram(
        "clustering.cluster_size_reads",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0});
};

ClusteringMetrics &
clusteringMetrics()
{
    static ClusteringMetrics metrics;
    return metrics;
}

} // namespace

RashtchianClustererConfig
RashtchianClustererConfig::forErrorRate(double error_rate,
                                        std::size_t read_length)
{
    RashtchianClustererConfig cfg;
    const double expected_gap =
        2.0 * error_rate * static_cast<double>(read_length);
    cfg.edit_threshold = static_cast<std::size_t>(
        expected_gap + 3.0 * std::sqrt(expected_gap) + 0.5);
    if (error_rate > 0.10) {
        cfg.key_len = 4;
        cfg.rounds = 96;
    }
    return cfg;
}

RashtchianClusterer::RashtchianClusterer(RashtchianClustererConfig config)
    : cfg(config), rng(config.seed)
{
}

std::string
RashtchianClusterer::name() const
{
    return std::string("rashtchian/") + signatureKindName(cfg.signature);
}

DNASTORE_HOT Clustering
RashtchianClusterer::cluster(const std::vector<Strand> &reads)
{
    last_stats = Stats{};
    Clustering result;
    if (reads.empty())
        return result;
    if (reads.size() == 1) {
        result.clusters = {{0}};
        return result;
    }

    const SignatureScheme scheme(cfg.signature, rng, cfg.q, cfg.num_grams);

    // Signature pre-calculation (reported separately in Table II).
    WallTimer sig_timer;
    obs::Span sig_span("clustering/signature_pass");
    std::vector<Signature> signatures(reads.size());
    const std::unique_ptr<ThreadPool> pool =
        poolFor(cfg.num_threads, reads.size());
    forEachIndex(pool.get(), reads.size(), [&](std::size_t i) {
        signatures[i] = scheme.compute(reads[i]);
    });
    sig_span.end();
    last_stats.signature_seconds = sig_timer.seconds();

    // Thresholds: user-provided or auto-configured from a sample.
    std::int64_t theta_low = cfg.theta_low;
    std::int64_t theta_high = cfg.theta_high;
    if (theta_low < 0 || theta_high < 0) {
        const Thresholds auto_thresholds =
            autoConfigureThresholds(reads, scheme, rng, cfg.auto_threshold);
        if (theta_low < 0)
            theta_low = auto_thresholds.low;
        if (theta_high < 0)
            theta_high = auto_thresholds.high;
    }
    last_stats.theta_low = theta_low;
    last_stats.theta_high = theta_high;

    WallTimer merge_timer;
    UnionFind dsu(reads.size());
    // Guards the shared UnionFind across bucket workers.  A local can
    // carry no DNASTORE_GUARDED_BY peer, so R6 allowlists this one.
    Mutex dsu_mutex{"clustering.dsu"};
    std::atomic<std::size_t> sig_comparisons{0};
    std::atomic<std::size_t> edit_calls{0};
    std::atomic<std::size_t> merges{0};
    std::atomic<std::size_t> filter_rejections{0};

    for (std::size_t round = 0; round < cfg.rounds; ++round) {
        obs::Span round_span("clustering/round");
        ++last_stats.rounds_run;

        // One random representative per current cluster.
        auto groups = dsu.groups();
        const Strand anchor = strand::random(rng, cfg.anchor_len);

        // Partition representatives by the key_len bases following the
        // anchor's first occurrence.
        std::unordered_map<std::string, std::vector<std::uint32_t>>
            partitions;
        partitions.reserve(groups.size() / 2 + 1);
        for (const auto &group : groups) {
            const std::uint32_t rep =
                group[rng.below(group.size())];
            const Strand &read = reads[rep];
            const auto pos = read.find(anchor);
            if (pos == Strand::npos)
                continue; // cluster sits this round out
            const std::size_t key_start = pos + cfg.anchor_len;
            if (key_start + cfg.key_len > read.size())
                continue;
            partitions[read.substr(key_start, cfg.key_len)].push_back(rep);
        }

        std::vector<std::vector<std::uint32_t>> buckets;
        buckets.reserve(partitions.size());
        for (auto &[key, members] : partitions) {
            if (members.size() > 1)
                buckets.push_back(std::move(members));
        }

        auto process_bucket = [&](std::size_t b) {
            const auto &members = buckets[b];
            for (std::size_t i = 0; i < members.size(); ++i) {
                for (std::size_t j = i + 1; j < members.size(); ++j) {
                    const std::uint32_t a = members[i];
                    const std::uint32_t c = members[j];
                    {
                        MutexLock lock(dsu_mutex);
                        if (dsu.connected(a, c))
                            continue;
                    }
                    sig_comparisons.fetch_add(1, std::memory_order_relaxed);
                    const std::int64_t d =
                        scheme.distance(signatures[a], signatures[c]);
                    bool do_merge = false;
                    if (d <= theta_low) {
                        do_merge = true;
                    } else if (d < theta_high) {
                        edit_calls.fetch_add(1, std::memory_order_relaxed);
                        do_merge = withinEditDistance(reads[a], reads[c],
                                                      cfg.edit_threshold);
                    } else {
                        // Signature filter rejected the pair outright.
                        filter_rejections.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    if (do_merge) {
                        MutexLock lock(dsu_mutex);
                        dsu.merge(a, c);
                        merges.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            }
        };

        forEachIndex(pool.get(), buckets.size(), process_bucket);
    }

    last_stats.clustering_seconds = merge_timer.seconds();
    // Relaxed is enough: these are monotone tallies and forEachIndex has
    // already joined every worker, so the loads race with nothing.
    last_stats.signature_comparisons =
        sig_comparisons.load(std::memory_order_relaxed);
    last_stats.edit_distance_calls =
        edit_calls.load(std::memory_order_relaxed);
    last_stats.merges = merges.load(std::memory_order_relaxed);

    result.clusters = dsu.groups();

    ClusteringMetrics &metrics = clusteringMetrics();
    metrics.runs.add(1);
    metrics.reads.add(reads.size());
    metrics.clusters.add(result.clusters.size());
    metrics.rounds.add(last_stats.rounds_run);
    metrics.signature_comparisons.add(last_stats.signature_comparisons);
    metrics.edit_calls.add(last_stats.edit_distance_calls);
    metrics.merges.add(last_stats.merges);
    metrics.filter_rejections.add(
        filter_rejections.load(std::memory_order_relaxed));
    for (const auto &cluster : result.clusters)
        metrics.cluster_size.observe(static_cast<double>(cluster.size()));
    return result;
}

} // namespace dnastore
