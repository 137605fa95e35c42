#include "clustering/clusterer.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string_view>

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
    if (num_reads < 2)
        return; // no thresholds were set
    // Signature-distance thresholds: q-gram distances reach the probe
    // count, w-gram ones the probe count times the read length.
    const std::vector<double> theta_bounds = {
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
        1024.0, 2048.0, 4096.0};
    reg.histogram("clustering.theta_low", theta_bounds)
        .observe(static_cast<double>(stats.theta_low));
    reg.histogram("clustering.theta_high", theta_bounds)
        .observe(static_cast<double>(stats.theta_high));
}

/**
 * One round's representative: a view of its key_len-byte bucket key,
 * its read index and the index of the cluster it represents.
 */
struct KeyedRep
{
    const char *key;
    std::uint32_t rep;
    std::uint32_t cluster;
};

/**
 * Stable sort of items by their key_len-byte keys in linear time: a
 * counting sort per key byte, last byte first.  Gives std::stable_sort's
 * order under string_view comparison (bytes compare as unsigned char).
 */
void
sortByKey(std::vector<KeyedRep> &items, std::vector<KeyedRep> &spare,
          std::size_t key_len)
{
    spare.resize(items.size());
    for (std::size_t byte = key_len; byte-- > 0;) {
        std::array<std::size_t, 257> next{};
        for (const KeyedRep &item : items)
            ++next[static_cast<unsigned char>(item.key[byte]) + 1u];
        for (std::size_t c = 1; c < next.size(); ++c)
            next[c] += next[c - 1];
        for (const KeyedRep &item : items)
            spare[next[static_cast<unsigned char>(item.key[byte])]++] = item;
        items.swap(spare);
    }
}

/** What merging one bucket did: its merge count and counters. */
struct BucketResult
{
    std::size_t merges = 0;
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
    // The clusters, ordered by smallest member, each listing its
    // members in ascending order (UnionFind::groups()'s order): every
    // read starts alone, and the rounds keep the lists up to date.
    Clustering result;
    std::vector<std::vector<std::uint32_t>> &clusters = result.clusters;
    clusters.resize(reads.size());
    for (std::uint32_t i = 0; i < reads.size(); ++i)
        clusters[i].assign(1, i);
    if (reads.size() < 2) {
        // Nothing to merge; draw nothing from rng.
        publishMetrics(result, reads.size(), last_stats, 0);
        return result;
    }

    const SignatureScheme scheme(cfg.signature, rng, kSignatureQ,
                                 kSignatureGrams);

    // Signature pre-calculation (reported separately in Table II).
    WallTimer sig_timer;
    obs::Span sig_span("clustering/signature_pass");
    SignatureTable signatures(scheme, reads.size());
    parallelFor(cfg.num_threads, reads.size(), [&](std::size_t i) {
        signatures.compute(i, reads[i]);
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
    // connect two of its members: the local answer is the global one,
    // and the bucket's clusters are its own to rewrite.
    auto merge_bucket = [&](std::span<const KeyedRep> members,
                            BucketResult &bucket) {
        UnionFind local(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                if (local.connected(i, j))
                    continue;
                const std::uint32_t a = members[i].rep;
                const std::uint32_t c = members[j].rep;
                ++bucket.comparisons;
                const std::int64_t d = signatures.distance(a, c);
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
                ++bucket.merges;
            }
        }
        if (bucket.merges == 0)
            return;
        // Fold each merged cluster into the first of its component (the
        // one with the smallest member: members come in cluster order),
        // leaving it empty, then restore ascending order.
        std::vector<std::size_t> first(members.size(), members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            std::size_t &head = first[local.find(i)];
            if (head == members.size()) {
                head = i;
                continue;
            }
            std::vector<std::uint32_t> &into = clusters[members[head].cluster];
            std::vector<std::uint32_t> &from = clusters[members[i].cluster];
            into.insert(into.end(), from.begin(), from.end());
            from.clear();
        }
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (first[local.find(i)] == i && local.sizeOf(i) > 1) {
                std::vector<std::uint32_t> &merged =
                    clusters[members[i].cluster];
                std::sort(merged.begin(), merged.end());
            }
        }
    };

    WallTimer merge_timer;
    std::size_t filter_rejections = 0;
    std::vector<KeyedRep> drawn, keyed, spare;
    drawn.reserve(reads.size());
    keyed.reserve(reads.size());
    std::vector<std::span<const KeyedRep>> buckets;
    buckets.reserve(reads.size() / 2);

    for (std::size_t round = 0; round < cfg.rounds; ++round) {
        obs::Span round_span("clustering/round");
        ++last_stats.rounds_run;

        // One random representative per current cluster, keyed by the
        // key_len bases following the anchor's first occurrence; a
        // cluster whose representative has no key sits the round out.
        const Strand anchor = strand::random(rng, kAnchorLen);
        drawn.resize(clusters.size());
        for (std::size_t k = 0; k < clusters.size(); ++k) {
            const std::vector<std::uint32_t> &members = clusters[k];
            drawn[k] = {nullptr, members[rng.below(members.size())],
                        static_cast<std::uint32_t>(k)};
        }
        parallelFor(cfg.num_threads, drawn.size(), [&](std::size_t k) {
            if (const auto key =
                    anchorKey(reads[drawn[k].rep], anchor, cfg.key_len))
                drawn[k].key = key->data();
        });
        keyed.clear();
        for (const KeyedRep &item : drawn) {
            if (item.key != nullptr)
                keyed.push_back(item);
        }

        // Equal keys form a run; a run of two or more is a bucket, its
        // members in cluster order.
        sortByKey(keyed, spare, cfg.key_len);
        buckets.clear();
        auto key_of = [&](const KeyedRep &item) {
            return std::string_view(item.key, cfg.key_len);
        };
        for (std::size_t begin = 0, end = 0; begin < keyed.size();
             begin = end) {
            while (end < keyed.size() &&
                   key_of(keyed[end]) == key_of(keyed[begin]))
                ++end;
            if (end - begin > 1)
                buckets.emplace_back(keyed.data() + begin, end - begin);
        }

        std::vector<BucketResult> results(buckets.size());
        parallelFor(cfg.num_threads, buckets.size(), [&](std::size_t b) {
            merge_bucket(buckets[b], results[b]);
        });
        for (const BucketResult &bucket : results) {
            last_stats.merges += bucket.merges;
            last_stats.signature_comparisons += bucket.comparisons;
            last_stats.edit_distance_calls += bucket.edit_calls;
            filter_rejections += bucket.filter_rejections;
        }
        // Drop the clusters merged away; the rest keep their order.
        std::erase_if(clusters, [](const std::vector<std::uint32_t> &c) {
            return c.empty();
        });
    }

    last_stats.clustering_seconds = merge_timer.seconds();
    publishMetrics(result, reads.size(), last_stats, filter_rejections);
    return result;
}

} // namespace dnastore
