/**
 * @file
 * Test-only reference for the i.i.d. channel: the earlier per-base
 * IidChannel::transmit kept verbatim in logic.  It makes up to three
 * Bernoulli trials at every index (insertion, deletion, substitution).
 * The production channel draws once per error event instead; it must
 * give reads of the same law, not the same bytes.
 */

#pragma once

#include <cstdint>

#include "dna/base.hh"
#include "dna/strand.hh"
#include "simulator/iid_channel.hh"
#include "util/random.hh"

namespace dnastore::reference
{

/** One noisy read of @p clean, three trials per index. */
inline Strand
perBaseIidTransmit(const IidChannelConfig &cfg, const Strand &clean, Rng &rng)
{
    Strand read;
    read.reserve(clean.size() + 8);
    for (char c : clean) {
        // One trial per index: insertion places a random base before the
        // current one; deletion drops it; substitution replaces it with a
        // different base.
        if (rng.chance(cfg.p_insertion))
            read.push_back(baseToChar(static_cast<std::uint8_t>(rng.below(4))));
        if (rng.chance(cfg.p_deletion))
            continue;
        if (rng.chance(cfg.p_substitution)) {
            const std::uint8_t original = charToCode(c);
            const std::uint8_t replacement = static_cast<std::uint8_t>(
                (original + 1 + rng.below(3)) & 0x3);
            read.push_back(baseToChar(replacement));
        } else {
            read.push_back(c);
        }
    }
    return read;
}

} // namespace dnastore::reference
