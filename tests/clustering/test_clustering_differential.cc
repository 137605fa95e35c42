/**
 * @file
 * Differential tests for the clustering stage.  The reference below is
 * the earlier implementation kept verbatim in logic: a string-keyed
 * partition map rebuilt each round, one shared union-find behind a
 * mutex, atomic tallies, and hash-set/hash-map signatures.  Its
 * gray-zone check is the plain DP, levenshtein(a, b) <= k, so the
 * comparison also covers the production edit-distance kernels.  The
 * production clusterers must give the same clusters (groups and their
 * order), the same Stats counters and the same signatures, at any
 * thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clustering/auto_threshold.hh"
#include "clustering/clusterer.hh"
#include "clustering/greedy_clusterer.hh"
#include "clustering/union_find.hh"
#include "dna/distance.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/sync.hh"
#include "util/thread_pool.hh"

namespace dnastore
{
namespace
{

namespace reference
{

/** Per-probe signature values of a read. */
using Signature = std::vector<std::int32_t>;

/** Signature of a read by hash-set (q-gram) or hash-map (w-gram). */
Signature
compute(const SignatureScheme &scheme, const std::string &read)
{
    const auto &probes = scheme.probeSet();
    Signature sig(probes.size());
    const std::size_t q = probes.front().size();

    if (scheme.kind() == SignatureKind::QGram) {
        std::unordered_set<std::string_view> present;
        for (std::size_t i = 0; i + q <= read.size(); ++i)
            present.insert(std::string_view(read).substr(i, q));
        for (std::size_t p = 0; p < probes.size(); ++p)
            sig[p] = present.count(probes[p]) ? 1 : 0;
        return sig;
    }

    std::unordered_map<std::string_view, std::int32_t> first_pos;
    for (std::size_t i = 0; i + q <= read.size(); ++i) {
        first_pos.emplace(std::string_view(read).substr(i, q),
                          static_cast<std::int32_t>(i));
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
        const auto it = first_pos.find(probes[p]);
        sig[p] = it == first_pos.end() ? -1 : it->second;
    }
    return sig;
}

/** Hamming (q-gram) or L1 (w-gram) distance of two signatures. */
std::int64_t
distance(const SignatureScheme &scheme, const Signature &a,
         const Signature &b)
{
    std::int64_t total = 0;
    for (std::size_t p = 0; p < a.size(); ++p) {
        if (scheme.kind() == SignatureKind::QGram)
            total += a[p] != b[p];
        else
            total += std::abs(static_cast<std::int64_t>(a[p]) - b[p]);
    }
    return total;
}

/** The Rashtchian clusterer with a locked shared union-find. */
class Rashtchian
{
  public:
    explicit Rashtchian(RashtchianClustererConfig config)
        : cfg(config), rng(config.seed)
    {
    }

    Clustering
    cluster(const std::vector<Strand> &reads)
    {
        stats = RashtchianClusterer::Stats{};
        Clustering result;
        if (reads.empty())
            return result;
        if (reads.size() == 1) {
            result.clusters = {{0}};
            return result;
        }

        const SignatureScheme scheme(cfg.signature, rng, 4, 60);
        std::vector<Signature> signatures(reads.size());
        parallelFor(cfg.num_threads, reads.size(), [&](std::size_t i) {
            signatures[i] = compute(scheme, reads[i]);
        });

        std::int64_t theta_low = cfg.theta_low;
        std::int64_t theta_high = cfg.theta_high;
        if (theta_low < 0 || theta_high < 0) {
            const Thresholds auto_thresholds = autoConfigureThresholds(
                reads, scheme, rng, cfg.auto_threshold);
            if (theta_low < 0)
                theta_low = auto_thresholds.low;
            if (theta_high < 0)
                theta_high = auto_thresholds.high;
        }
        stats.theta_low = theta_low;
        stats.theta_high = theta_high;

        UnionFind dsu(reads.size());
        Mutex dsu_mutex{"test.reference_dsu"};
        std::atomic<std::size_t> sig_comparisons{0};
        std::atomic<std::size_t> edit_calls{0};
        std::atomic<std::size_t> merges{0};

        for (std::size_t round = 0; round < cfg.rounds; ++round) {
            ++stats.rounds_run;
            auto groups = dsu.groups();
            const Strand anchor = strand::random(rng, 3);

            std::unordered_map<std::string, std::vector<std::uint32_t>>
                partitions;
            for (const auto &group : groups) {
                const std::uint32_t rep = group[rng.below(group.size())];
                const Strand &read = reads[rep];
                const auto pos = read.find(anchor);
                if (pos == Strand::npos)
                    continue;
                const std::size_t key_start = pos + 3;
                if (key_start + cfg.key_len > read.size())
                    continue;
                partitions[read.substr(key_start, cfg.key_len)].push_back(
                    rep);
            }

            std::vector<std::vector<std::uint32_t>> buckets;
            for (auto &[key, members] : partitions) {
                if (members.size() > 1)
                    buckets.push_back(std::move(members));
            }

            parallelFor(cfg.num_threads, buckets.size(), [&](std::size_t b) {
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
                        sig_comparisons.fetch_add(1);
                        const std::int64_t d =
                            distance(scheme, signatures[a], signatures[c]);
                        bool do_merge = false;
                        if (d <= theta_low) {
                            do_merge = true;
                        } else if (d < theta_high) {
                            edit_calls.fetch_add(1);
                            do_merge = levenshtein(reads[a], reads[c]) <=
                                       cfg.edit_threshold;
                        }
                        if (do_merge) {
                            MutexLock lock(dsu_mutex);
                            dsu.merge(a, c);
                            merges.fetch_add(1);
                        }
                    }
                }
            });
        }

        stats.signature_comparisons = sig_comparisons.load();
        stats.edit_distance_calls = edit_calls.load();
        stats.merges = merges.load();
        result.clusters = dsu.groups();
        return result;
    }

    RashtchianClusterer::Stats stats;

  private:
    RashtchianClustererConfig cfg;
    Rng rng;
};

/** The online greedy clusterer with string-keyed buckets. */
class Greedy
{
  public:
    explicit Greedy(GreedyClustererConfig config)
        : cfg(config), rng(config.seed)
    {
    }

    Clustering
    cluster(const std::vector<Strand> &reads)
    {
        stats = GreedyOnlineClusterer::Stats{};
        Clustering result;
        if (reads.empty())
            return result;

        const SignatureScheme scheme(cfg.signature, rng, 4, 60);
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

        std::vector<Strand> anchors;
        for (std::size_t a = 0; a < cfg.num_anchors; ++a)
            anchors.push_back(strand::random(rng, 3));

        struct ClusterState
        {
            std::uint32_t representative;
            Signature signature;
            std::vector<std::uint32_t> members;
        };
        std::vector<ClusterState> clusters;
        std::vector<
            std::unordered_map<std::string, std::vector<std::uint32_t>>>
            buckets(cfg.num_anchors);

        auto keys_of = [&](const Strand &read) {
            std::vector<std::pair<std::size_t, std::string>> keys;
            for (std::size_t a = 0; a < cfg.num_anchors; ++a) {
                const auto pos = read.find(anchors[a]);
                if (pos == Strand::npos)
                    continue;
                const std::size_t start = pos + 3;
                if (start + cfg.key_len > read.size())
                    continue;
                keys.emplace_back(a, read.substr(start, cfg.key_len));
            }
            return keys;
        };

        for (std::uint32_t r = 0; r < reads.size(); ++r) {
            const Strand &read = reads[r];
            const Signature sig = compute(scheme, read);
            const auto keys = keys_of(read);

            std::int64_t best_distance = 0;
            std::int64_t best_cluster = -1;
            for (const auto &[a, key] : keys) {
                const auto it = buckets[a].find(key);
                if (it == buckets[a].end())
                    continue;
                for (const std::uint32_t c : it->second) {
                    ++stats.signature_comparisons;
                    const std::int64_t d =
                        distance(scheme, sig, clusters[c].signature);
                    if (best_cluster < 0 || d < best_distance) {
                        best_distance = d;
                        best_cluster = c;
                    }
                }
            }

            bool join = false;
            if (best_cluster >= 0) {
                const auto best = static_cast<std::size_t>(best_cluster);
                if (best_distance <= theta_join) {
                    join = true;
                } else if (best_distance < theta_check) {
                    ++stats.edit_distance_calls;
                    join = levenshtein(
                               read,
                               reads[clusters[best].representative]) <=
                           cfg.edit_threshold;
                }
            }

            if (join) {
                clusters[static_cast<std::size_t>(best_cluster)]
                    .members.push_back(r);
                continue;
            }

            const std::uint32_t id =
                static_cast<std::uint32_t>(clusters.size());
            clusters.push_back({r, sig, {r}});
            ++stats.clusters_created;
            for (const auto &[a, key] : keys)
                buckets[a][key].push_back(id);
        }

        for (auto &state : clusters)
            result.clusters.push_back(std::move(state.members));
        return result;
    }

    GreedyOnlineClusterer::Stats stats;

  private:
    GreedyClustererConfig cfg;
    Rng rng;
};

} // namespace reference

/** A seeded read set and the clusterer settings tuned for it. */
struct ReadSetCase
{
    const char *name;
    double error_rate; //!< i.i.d. total error rate; <= 0 = virtual wetlab.
    std::uint64_t seed;
};

constexpr std::size_t kReadLength = 120;

std::vector<Strand>
readSet(const ReadSetCase &c)
{
    Rng rng(c.seed);
    std::vector<Strand> strands;
    for (int i = 0; i < 80; ++i)
        strands.push_back(strand::random(rng, kReadLength));
    const CoverageModel coverage(8.0, CoverageDistribution::Poisson);
    if (c.error_rate > 0) {
        const IidChannel channel(
            IidChannelConfig::fromTotalErrorRate(c.error_rate));
        return simulateSequencing(strands, channel, coverage, rng).reads;
    }
    const VirtualWetlabChannel channel;
    return simulateSequencing(strands, channel, coverage, rng).reads;
}

double
configErrorRate(const ReadSetCase &c)
{
    return c.error_rate > 0 ? c.error_rate : 0.10;
}

const ReadSetCase kReadSets[] = {
    {"Iid3", 0.03, 101},
    {"Iid15", 0.15, 102}, // forErrorRate: key_len 4, 96 rounds
    {"Wetlab", 0.0, 103},
};

std::string
paramName(const ReadSetCase &read_set, SignatureKind kind)
{
    return std::string(read_set.name) +
           (kind == SignatureKind::QGram ? "_QGram" : "_WGram");
}

void
expectSameStats(const RashtchianClusterer::Stats &actual,
                const RashtchianClusterer::Stats &expected)
{
    EXPECT_EQ(actual.signature_comparisons, expected.signature_comparisons);
    EXPECT_EQ(actual.edit_distance_calls, expected.edit_distance_calls);
    EXPECT_EQ(actual.merges, expected.merges);
    EXPECT_EQ(actual.rounds_run, expected.rounds_run);
    EXPECT_EQ(actual.theta_low, expected.theta_low);
    EXPECT_EQ(actual.theta_high, expected.theta_high);
}

using RashtchianParam = std::tuple<ReadSetCase, SignatureKind, std::size_t>;

class ClusteringDifferential
    : public ::testing::TestWithParam<RashtchianParam>
{
};

TEST_P(ClusteringDifferential, RashtchianMatchesReference)
{
    const auto &[read_set, kind, threads] = GetParam();
    const std::vector<Strand> reads = readSet(read_set);
    RashtchianClustererConfig cfg = RashtchianClustererConfig::forErrorRate(
        configErrorRate(read_set), kReadLength);
    cfg.signature = kind;
    cfg.num_threads = threads;

    RashtchianClusterer clusterer(cfg);
    reference::Rashtchian expected(cfg);

    // A second, smaller call after a one-read call checks that the rng
    // stream stays in step: the one-read call must draw nothing.
    const std::vector<Strand> half(reads.begin(),
                                   reads.begin() + reads.size() / 2);
    for (const auto *input : {&reads, &half}) {
        EXPECT_EQ(clusterer.cluster(*input).clusters,
                  expected.cluster(*input).clusters);
        expectSameStats(clusterer.stats(), expected.stats);
        EXPECT_GT(expected.stats.merges, 0u);
        EXPECT_GT(expected.stats.edit_distance_calls, 0u);
        EXPECT_EQ(clusterer.cluster({reads[0]}).clusters,
                  expected.cluster({reads[0]}).clusters);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ClusteringDifferential,
    ::testing::Combine(::testing::ValuesIn(kReadSets),
                       ::testing::Values(SignatureKind::QGram,
                                         SignatureKind::WGram),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})),
    [](const ::testing::TestParamInfo<RashtchianParam> &p) {
        return paramName(std::get<0>(p.param), std::get<1>(p.param)) +
               "_Threads" + std::to_string(std::get<2>(p.param));
    });

/** The single-threaded checks: one case per read set and kind. */
using SerialParam = std::tuple<ReadSetCase, SignatureKind>;

class ClusteringDifferentialSerial
    : public ::testing::TestWithParam<SerialParam>
{
};

TEST_P(ClusteringDifferentialSerial, GreedyMatchesReference)
{
    const auto &[read_set, kind] = GetParam();
    const std::vector<Strand> reads = readSet(read_set);
    GreedyClustererConfig cfg;
    cfg.signature = kind;

    GreedyOnlineClusterer clusterer(cfg);
    reference::Greedy expected(cfg);
    for (int call = 0; call < 2; ++call) {
        EXPECT_EQ(clusterer.cluster(reads).clusters,
                  expected.cluster(reads).clusters);
        EXPECT_EQ(clusterer.stats().signature_comparisons,
                  expected.stats.signature_comparisons);
        EXPECT_EQ(clusterer.stats().edit_distance_calls,
                  expected.stats.edit_distance_calls);
        EXPECT_EQ(clusterer.stats().clusters_created,
                  expected.stats.clusters_created);
    }
}

TEST_P(ClusteringDifferentialSerial, SignaturesMatchReference)
{
    const auto &[read_set, kind] = GetParam();
    Rng rng(read_set.seed + 1);
    const SignatureScheme scheme(kind, rng, kSignatureQ, kSignatureGrams);
    const std::vector<Strand> reads = readSet(read_set);
    SignatureTable table(scheme, reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i)
        table.compute(i, reads[i]);
    std::vector<reference::Signature> expected;
    for (const Strand &read : reads)
        expected.push_back(reference::compute(scheme, read));
    for (std::size_t i = 0; i < reads.size(); ++i) {
        // Per-probe values: mask bits (q-gram) or positions (w-gram).
        reference::Signature values(scheme.dimensions());
        for (std::size_t p = 0; p < values.size(); ++p)
            values[p] = table.value(i, p);
        ASSERT_EQ(values, expected[i]) << reads[i];
        for (std::size_t j = i % 7; j < reads.size(); j += 7) {
            ASSERT_EQ(table.distance(i, j),
                      reference::distance(scheme, expected[i], expected[j]))
                << i << " vs " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ClusteringDifferentialSerial,
    ::testing::Combine(::testing::ValuesIn(kReadSets),
                       ::testing::Values(SignatureKind::QGram,
                                         SignatureKind::WGram)),
    [](const ::testing::TestParamInfo<SerialParam> &p) {
        return paramName(std::get<0>(p.param), std::get<1>(p.param));
    });

} // namespace
} // namespace dnastore
