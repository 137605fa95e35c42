/**
 * @file
 * A single-pass, low-memory alternative clustering module, in the
 * spirit of tree-based online clusterers like Clover (paper Section X):
 * reads are processed one at a time, each read is routed to a small set
 * of candidate clusters through anchor-keyed buckets, compared against
 * cluster representatives by signature distance (with an optional
 * edit-distance confirmation), and either joins the best match or
 * founds a new cluster.
 *
 * Compared to the Rashtchian merge clusterer this trades some accuracy
 * for a single pass over the data and O(clusters) memory — a useful
 * point in the design space when billions of reads do not fit an
 * iterative all-pairs scheme.
 */

#pragma once

#include "clustering/clusterer.hh"

namespace dnastore
{

/** Configuration of the online greedy clusterer. */
struct GreedyClustererConfig
{
    SignatureKind signature = SignatureKind::QGram;
    /** Independent anchor hash functions routing reads to buckets. */
    std::size_t num_anchors = 8;
    std::size_t key_len = 4;     //!< Bucket key bases after the anchor.
    /** Join the best candidate if the signature distance is below this;
     *  negative = auto-configure from a sample (Section VI-B). */
    std::int64_t theta_join = -1;
    /** Confirm gray-zone joins with a bounded edit-distance check. */
    std::size_t edit_threshold = 25;
    std::uint64_t seed = 0x92eedbULL; //!< RNG seed (anchors, thresholds).
};

/** Online greedy clusterer. */
class GreedyOnlineClusterer : public Clusterer
{
  public:
    struct Stats
    {
        std::size_t signature_comparisons = 0;
        std::size_t edit_distance_calls = 0;
        std::size_t clusters_created = 0;
        double seconds = 0.0;
    };

    explicit GreedyOnlineClusterer(GreedyClustererConfig config);

    Clustering cluster(const std::vector<Strand> &reads) override;

    std::string name() const override;

    const Stats &stats() const { return last_stats; }

  private:
    GreedyClustererConfig cfg;
    Rng rng;
    Stats last_stats;
};

} // namespace dnastore

