#include "simulator/sequencing_run.hh"

#include <numeric>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/thread_pool.hh"

namespace dnastore
{

SequencingRun
simulateSequencing(const std::vector<Strand> &strands, const Channel &channel,
                   const CoverageModel &coverage, Rng &rng, bool shuffle,
                   std::size_t width)
{
    obs::Span span("simulation/sequencing_run");
    const std::uint64_t base = rng.next();

    // Coverage first, from each strand's own stream; the stream then
    // carries on into that strand's reads.
    std::vector<Rng> streams;
    streams.reserve(strands.size());
    std::vector<std::size_t> offset(strands.size() + 1, 0);
    SequencingRun run;
    for (std::size_t s = 0; s < strands.size(); ++s) {
        streams.emplace_back(mixSeed(base, s));
        const std::uint64_t copies = coverage.draw(streams.back());
        if (copies == 0)
            ++run.dropped_strands;
        offset[s + 1] = offset[s] + copies;
    }

    // slot[i]: the final position of the i-th read in strand order.
    std::vector<std::size_t> slot(offset.back());
    std::iota(slot.begin(), slot.end(), 0);
    if (shuffle)
        rng.shuffle(slot);

    run.reads.resize(slot.size());
    run.origin.resize(slot.size());
    parallelFor(width, strands.size(), [&](std::size_t s) {
        for (std::size_t i = offset[s]; i < offset[s + 1]; ++i) {
            run.reads[slot[i]] = channel.transmit(strands[s], streams[s]);
            run.origin[slot[i]] = static_cast<std::uint32_t>(s);
        }
    });

    obs::metrics().counter("simulation.strands_total").add(strands.size());
    obs::metrics().counter("simulation.reads_total").add(run.reads.size());
    obs::metrics()
        .counter("simulation.dropped_strands_total")
        .add(run.dropped_strands);
    return run;
}

} // namespace dnastore
