#include "clustering/clusterer.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "clustering/union_find.hh"
#include "dna/distance.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/hot.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"

namespace dnastore
{

namespace
{

/** Count one cluster() call in the process-wide metrics. */
void
publishMetrics(const Clustering &result, std::size_t num_reads,
               const RashtchianClusterer::Stats &stats,
               std::size_t filter_rejections)
{
    obs::MetricsRegistry &reg = obs::metrics();
    reg.counter("clustering.runs_total").add(1);
    reg.counter("clustering.reads_total").add(num_reads);
    reg.counter("clustering.clusters_total").add(result.clusters.size());
    reg.counter("clustering.rounds_total").add(stats.rounds_run);
    reg.counter("clustering.signature_comparisons_total")
        .add(stats.signature_comparisons);
    reg.counter("clustering.edit_distance_calls_total")
        .add(stats.edit_distance_calls);
    reg.counter("clustering.merges_total").add(stats.merges);
    reg.counter("clustering.filter_rejections_total").add(filter_rejections);
    obs::FixedHistogram &cluster_size = reg.histogram(
        "clustering.cluster_size_reads",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0});
    for (const auto &cluster : result.clusters)
        cluster_size.observe(static_cast<double>(cluster.size()));
}

/** One round's representative: its bucket key and read index. */
using KeyedRep = std::pair<std::string_view, std::uint32_t>;

/** What merging one bucket did: its merges, in order, and counters. */
struct BucketResult
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> merges;
    std::size_t comparisons = 0;
    std::size_t edit_calls = 0;
    std::size_t filter_rejections = 0;
};

} // namespace

std::optional<std::string_view>
anchorKey(std::string_view read, std::string_view anchor, std::size_t key_len)
{
    const std::size_t pos = read.find(anchor);
    if (pos == std::string_view::npos ||
        pos + anchor.size() + key_len > read.size())
        return std::nullopt;
    return std::string_view(read.data() + pos + anchor.size(), key_len);
}

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
    if (reads.size() < 2) {
        // Nothing to merge; draw nothing from rng.
        result.clusters = UnionFind(reads.size()).groups();
        publishMetrics(result, reads.size(), last_stats, 0);
        return result;
    }

    const SignatureScheme scheme(cfg.signature, rng, kSignatureQ,
                                 kSignatureGrams);

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

    // Merge the members of one bucket in pair order on a union-find of
    // their positions.  A round sends one representative per cluster
    // into at most one bucket, so only this bucket's own merges can
    // connect two of its members: the local answer is the global one.
    auto merge_bucket = [&](std::span<const KeyedRep> members,
                            BucketResult &bucket) {
        bucket.merges.reserve(members.size() - 1);
        UnionFind local(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                if (local.connected(i, j))
                    continue;
                const std::uint32_t a = members[i].second;
                const std::uint32_t c = members[j].second;
                ++bucket.comparisons;
                const std::int64_t d =
                    scheme.distance(signatures[a], signatures[c]);
                if (d > theta_low) {
                    if (d >= theta_high) {
                        // Signature filter rejected the pair outright.
                        ++bucket.filter_rejections;
                        continue;
                    }
                    ++bucket.edit_calls;
                    if (!withinEditDistance(reads[a], reads[c],
                                            cfg.edit_threshold))
                        continue;
                }
                local.merge(i, j);
                bucket.merges.emplace_back(a, c);
            }
        }
    };

    WallTimer merge_timer;
    UnionFind dsu(reads.size());
    std::size_t filter_rejections = 0;
    std::vector<KeyedRep> keyed;
    keyed.reserve(reads.size());
    std::vector<std::span<const KeyedRep>> buckets;
    buckets.reserve(reads.size() / 2);

    for (std::size_t round = 0; round < cfg.rounds; ++round) {
        obs::Span round_span("clustering/round");
        ++last_stats.rounds_run;

        // One random representative per current cluster, keyed by the
        // key_len bases following the anchor's first occurrence; a
        // cluster whose representative has no key sits the round out.
        const auto groups = dsu.groups();
        const Strand anchor = strand::random(rng, kAnchorLen);
        keyed.clear();
        for (const auto &group : groups) {
            const std::uint32_t rep = group[rng.below(group.size())];
            if (const auto key = anchorKey(reads[rep], anchor, cfg.key_len))
                keyed.emplace_back(*key, rep);
        }

        // Equal keys form a run; a run of two or more is a bucket, its
        // members in group order.
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const KeyedRep &x, const KeyedRep &y) {
                             return x.first < y.first;
                         });
        buckets.clear();
        for (std::size_t begin = 0, end = 0; begin < keyed.size();
             begin = end) {
            while (end < keyed.size() &&
                   keyed[end].first == keyed[begin].first)
                ++end;
            if (end - begin > 1)
                buckets.emplace_back(keyed.data() + begin, end - begin);
        }

        std::vector<BucketResult> results(buckets.size());
        forEachIndex(pool.get(), buckets.size(), [&](std::size_t b) {
            merge_bucket(buckets[b], results[b]);
        });
        for (const BucketResult &bucket : results) {
            for (const auto &[a, c] : bucket.merges)
                dsu.merge(a, c);
            last_stats.merges += bucket.merges.size();
            last_stats.signature_comparisons += bucket.comparisons;
            last_stats.edit_distance_calls += bucket.edit_calls;
            filter_rejections += bucket.filter_rejections;
        }
    }

    last_stats.clustering_seconds = merge_timer.seconds();
    result.clusters = dsu.groups();
    publishMetrics(result, reads.size(), last_stats, filter_rejections);
    return result;
}

} // namespace dnastore
