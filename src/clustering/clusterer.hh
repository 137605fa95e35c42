/**
 * @file
 * The clustering module interface and the distributed merge clusterer
 * of Rashtchian et al. (paper Section VI).  Reads begin as singleton
 * clusters; each round picks a random anchor, partitions cluster
 * representatives by the bases following the anchor, and merges
 * near-identical clusters inside each partition — using cheap signature
 * distances to avoid edit-distance comparisons wherever possible.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clustering/auto_threshold.hh"
#include "clustering/signature.hh"
#include "dna/strand.hh"
#include "util/random.hh"

namespace dnastore
{

/** Signature gram length, signature probe count and anchor length
 *  shared by every clusterer. */
inline constexpr std::size_t kSignatureQ = 4;
inline constexpr std::size_t kSignatureGrams = 60;
inline constexpr std::size_t kAnchorLen = 3;

/**
 * Bucket key of a read: the key_len bytes after the first occurrence
 * of anchor, viewed in place.  Empty when the anchor is missing or the
 * key would run past the end of the read.
 */
std::optional<std::string_view>
anchorKey(std::string_view read, std::string_view anchor,
          std::size_t key_len);

/** Output of a clustering module: groups of read indices. */
struct Clustering
{
    std::vector<std::vector<std::uint32_t>> clusters;

    std::size_t numClusters() const { return clusters.size(); }
};

/** Clustering module interface (swappable in the pipeline). */
class Clusterer
{
  public:
    virtual ~Clusterer() = default;

    /** Cluster the reads (stateful: uses the module's own RNG). */
    virtual Clustering cluster(const std::vector<Strand> &reads) = 0;

    /** Human-readable module name. */
    virtual std::string name() const = 0;
};

/** Configuration of the Rashtchian-style clusterer. */
struct RashtchianClustererConfig
{
    SignatureKind signature = SignatureKind::QGram;
    std::size_t key_len = 5;       //!< Partition key bases after anchor.
    std::size_t rounds = 32;       //!< Merge rounds.
    /** Signature-distance thresholds; negative values = auto-configure
     *  (paper Section VI-B). */
    std::int64_t theta_low = -1;
    std::int64_t theta_high = -1;
    /** Edit-distance ceiling for gray-zone merges. */
    std::size_t edit_threshold = 25;
    /** parallelFor width (1 = sequential, 0 = the shared pool's size). */
    std::size_t num_threads = 1;
    std::uint64_t seed = 0xc105e2ULL; //!< RNG seed (anchors, sampling).
    AutoThresholdConfig auto_threshold{};

    /**
     * Defaults tuned for an expected per-nucleotide error rate and read
     * length: the gray-zone edit threshold tracks the expected distance
     * between two reads of the same strand (~2pL plus spread), and
     * high-error workloads get shorter partition keys and more rounds
     * so that clusters still meet despite corrupted anchor regions.
     */
    static RashtchianClustererConfig
    forErrorRate(double error_rate, std::size_t read_length);
};

/** Distributed iterative-merge clusterer with q-gram/w-gram signatures. */
class RashtchianClusterer : public Clusterer
{
  public:
    /** Work and timing counters for the evaluation tables. */
    struct Stats
    {
        std::size_t signature_comparisons = 0;
        std::size_t edit_distance_calls = 0;
        std::size_t merges = 0;
        std::size_t rounds_run = 0;
        double signature_seconds = 0.0;  //!< Signature pre-calculation.
        double clustering_seconds = 0.0; //!< Merge rounds.
        std::int64_t theta_low = 0;      //!< Thresholds actually used.
        std::int64_t theta_high = 0;
    };

    explicit RashtchianClusterer(RashtchianClustererConfig config);

    Clustering cluster(const std::vector<Strand> &reads) override;

    std::string name() const override;

    /** Counters from the most recent cluster() call. */
    const Stats &stats() const { return last_stats; }

    const RashtchianClustererConfig &config() const { return cfg; }

  private:
    RashtchianClustererConfig cfg;
    Rng rng;
    Stats last_stats;
};

} // namespace dnastore

