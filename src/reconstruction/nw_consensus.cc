#include "reconstruction/nw_consensus.hh"

#include <algorithm>
#include <array>

#include "dna/base.hh"
#include "util/hot.hh"

namespace dnastore
{

DNASTORE_HOT Strand
NwConsensusReconstructor::reconstruct(const std::vector<Strand> &reads,
                                      std::size_t expected_length) const
{
    if (reads.empty())
        return Strand(expected_length, 'A');

    // Use up to max_reads reads, preferring those whose length is
    // closest to the expected strand length (least-mutilated reads seed
    // the best profile).
    std::vector<std::size_t> order(reads.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto closeness = [&](std::size_t i) {
        const std::size_t len = reads[i].size();
        return len > expected_length ? len - expected_length
                                     : expected_length - len;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return closeness(a) < closeness(b);
                     });
    std::size_t use = reads.size();
    if (cfg.max_reads > 0)
        use = std::min(use, cfg.max_reads);

    ProfileMsa msa(cfg.scores);
    for (std::size_t i = 0; i < use; ++i) {
        if (!reads[order[i]].empty())
            msa.addRead(reads[order[i]]);
    }
    if (msa.numReads() == 0)
        return Strand(expected_length, 'A');

    Strand consensus = msa.consensus(expected_length);

    // The MSA can come up short when coverage is thin; pad with the
    // overall majority base so the decoder sees a full-length strand.
    if (consensus.size() < expected_length) {
        std::array<std::size_t, 4> counts{};
        for (const Strand &read : reads)
            for (char c : read) {
                const std::uint8_t code = charToCode(c);
                if (code != 0xff)
                    ++counts[code];
            }
        std::size_t best = 0;
        for (std::size_t b = 1; b < 4; ++b)
            if (counts[b] > counts[best])
                best = b;
        consensus.append(expected_length - consensus.size(),
                         baseToChar(static_cast<std::uint8_t>(best)));
    }
    return consensus;
}

} // namespace dnastore
