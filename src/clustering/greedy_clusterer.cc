#include "clustering/greedy_clusterer.hh"

#include <unordered_map>

#include "clustering/auto_threshold.hh"
#include "dna/distance.hh"
#include "util/timer.hh"

namespace dnastore
{

GreedyOnlineClusterer::GreedyOnlineClusterer(GreedyClustererConfig config)
    : cfg(config), rng(config.seed)
{
}

std::string
GreedyOnlineClusterer::name() const
{
    return std::string("greedy-online/") + signatureKindName(cfg.signature);
}

Clustering
GreedyOnlineClusterer::cluster(const std::vector<Strand> &reads)
{
    last_stats = Stats{};
    Clustering result;
    if (reads.empty())
        return result;

    WallTimer timer;
    const SignatureScheme scheme(cfg.signature, rng, kSignatureQ,
                                 kSignatureGrams);

    std::int64_t theta_join = cfg.theta_join;
    std::int64_t theta_check = cfg.theta_join;
    if (theta_join < 0 && reads.size() >= 2) {
        const Thresholds thresholds =
            autoConfigureThresholds(reads, scheme, rng);
        theta_join = thresholds.low;
        theta_check = thresholds.high;
    } else if (theta_join < 0) {
        theta_join = 0;
        theta_check = 1;
    } else {
        theta_check = theta_join * 2;
    }

    // One fixed anchor per hash function; a read's bucket key is the
    // key_len bases following the anchor's first occurrence.
    std::vector<Strand> anchors;
    for (std::size_t a = 0; a < cfg.num_anchors; ++a)
        anchors.push_back(strand::random(rng, kAnchorLen));

    struct ClusterState
    {
        std::uint32_t representative;
        std::vector<std::uint32_t> members;
    };
    std::vector<ClusterState> clusters;
    // buckets[a] maps key -> cluster ids routed there by anchor a.  Keys
    // view the reads, which outlive this call.
    std::vector<std::unordered_map<std::string_view,
                                   std::vector<std::uint32_t>>>
        buckets(cfg.num_anchors);

    SignatureTable signatures(scheme, reads.size());
    for (std::uint32_t r = 0; r < reads.size(); ++r) {
        const Strand &read = reads[r];
        signatures.compute(r, read);
        std::vector<std::pair<std::size_t, std::string_view>> keys;
        for (std::size_t a = 0; a < cfg.num_anchors; ++a) {
            if (const auto key = anchorKey(read, anchors[a], cfg.key_len))
                keys.emplace_back(a, *key);
        }

        // Collect candidate clusters from every bucket the read hashes
        // into and keep the best-matching representative.
        std::int64_t best_distance = 0;
        std::int64_t best_cluster = -1;
        for (const auto &[a, key] : keys) {
            const auto it = buckets[a].find(key);
            if (it == buckets[a].end())
                continue;
            for (const std::uint32_t c : it->second) {
                ++last_stats.signature_comparisons;
                const std::int64_t d =
                    signatures.distance(r, clusters[c].representative);
                if (best_cluster < 0 || d < best_distance) {
                    best_distance = d;
                    best_cluster = c;
                }
            }
        }

        bool join = false;
        if (best_cluster >= 0) {
            if (best_distance <= theta_join) {
                join = true;
            } else if (best_distance < theta_check) {
                ++last_stats.edit_distance_calls;
                join = withinEditDistance(
                    read,
                    reads[clusters[static_cast<std::size_t>(best_cluster)]
                              .representative],
                    cfg.edit_threshold);
            }
        }

        if (join) {
            clusters[static_cast<std::size_t>(best_cluster)]
                .members.push_back(r);
            continue;
        }

        // Found a new cluster; route it into its buckets.
        const std::uint32_t id =
            static_cast<std::uint32_t>(clusters.size());
        clusters.push_back({r, {r}});
        ++last_stats.clusters_created;
        for (const auto &[a, key] : keys)
            buckets[a][key].push_back(id);
    }

    result.clusters.reserve(clusters.size());
    for (auto &state : clusters)
        result.clusters.push_back(std::move(state.members));
    last_stats.seconds = timer.seconds();
    return result;
}

} // namespace dnastore
