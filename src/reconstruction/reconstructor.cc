#include "reconstruction/reconstructor.hh"

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/hot.hh"
#include "util/thread_pool.hh"

namespace dnastore
{

DNASTORE_HOT std::vector<Strand>
reconstructAll(const Reconstructor &algo,
               const std::vector<std::vector<Strand>> &clusters,
               std::size_t expected_length, std::size_t num_threads)
{
    std::vector<Strand> out(clusters.size());
    std::uint64_t reads_seen = 0;
    for (const auto &cluster : clusters)
        reads_seen += cluster.size();
    forEachIndex(poolFor(num_threads, clusters.size()).get(), clusters.size(),
                 [&](std::size_t i) {
                     obs::Span span("reconstruction/cluster");
                     out[i] = algo.reconstruct(clusters[i], expected_length);
                 });
    obs::metrics()
        .counter("reconstruction.clusters_total")
        .add(clusters.size());
    obs::metrics().counter("reconstruction.reads_total").add(reads_seen);
    return out;
}

} // namespace dnastore
