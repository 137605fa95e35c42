#include "codec/primer.hh"

#include <limits>
#include <stdexcept>

#include "dna/distance.hh"

namespace dnastore
{

namespace
{

bool
satisfiesLocalRules(const Strand &candidate, const PrimerConstraints &cons)
{
    const double gc = strand::gcContent(candidate);
    if (gc < cons.min_gc || gc > cons.max_gc)
        return false;
    return strand::maxHomopolymerRun(candidate) <= cons.max_homopolymer;
}

bool
farFromAll(const Strand &candidate, const std::vector<Strand> &accepted,
           std::size_t min_hamming)
{
    const Strand rc = strand::reverseComplement(candidate);
    for (const Strand &other : accepted) {
        if (hammingDistance(candidate, other) < min_hamming)
            return false;
        if (hammingDistance(rc, other) < min_hamming)
            return false;
    }
    // Self-complementary primers would bind to themselves during PCR.
    return hammingDistance(candidate, rc) >= min_hamming;
}

} // namespace

PrimerLibrary
PrimerLibrary::design(Rng &rng, std::size_t num_primers,
                      const PrimerConstraints &cons)
{
    return PrimerLibrary(std::vector<Strand>{})
        .grown(rng, num_primers, cons);
}

PrimerLibrary
PrimerLibrary::grown(Rng &rng, std::size_t num_primers,
                     const PrimerConstraints &cons) const
{
    constexpr std::size_t max_attempts_per_primer = 200000;
    std::vector<Strand> accepted = primers;
    accepted.reserve(num_primers);
    while (accepted.size() < num_primers) {
        bool placed = false;
        for (std::size_t attempt = 0; attempt < max_attempts_per_primer;
             ++attempt) {
            Strand candidate = strand::random(rng, cons.length);
            if (!satisfiesLocalRules(candidate, cons))
                continue;
            if (!farFromAll(candidate, accepted, cons.min_hamming))
                continue;
            accepted.push_back(std::move(candidate));
            placed = true;
            break;
        }
        if (!placed) {
            throw std::runtime_error(
                "PrimerLibrary::design: constraints too tight after " +
                std::to_string(accepted.size()) + " primers");
        }
    }
    return PrimerLibrary(std::move(accepted));
}

PrimerLibrary::PrimerLibrary(std::vector<Strand> primers_in)
    : primers(std::move(primers_in))
{
    for (const Strand &p : primers) {
        if (p.empty() || !strand::isValid(p))
            throw std::invalid_argument("PrimerLibrary: invalid primer");
    }
}

PrimerPair
PrimerLibrary::pairFor(std::size_t file_slot) const
{
    if (2 * file_slot + 1 >= primers.size())
        throw std::out_of_range("PrimerLibrary::pairFor: no such pair");
    return {primers[2 * file_slot], primers[2 * file_slot + 1]};
}

Strand
attachPrimers(const PrimerPair &pair, const Strand &payload)
{
    return pair.forward + payload + pair.reverse;
}

namespace
{

/**
 * Best split point for a primer at the front of s: returns the cut
 * position with minimal edit distance between the primer and s[0, cut),
 * scanning cut in [len - slack, len + slack].
 */
std::optional<std::size_t>
frontCut(const Strand &primer, const std::string &s, std::size_t max_edit)
{
    const std::size_t len = primer.size();
    std::size_t best_cut = 0;
    std::size_t best_d = std::numeric_limits<std::size_t>::max();
    const std::size_t lo = len > max_edit ? len - max_edit : 0;
    const std::size_t hi = std::min(s.size(), len + max_edit);
    for (std::size_t cut = lo; cut <= hi; ++cut) {
        const std::size_t d =
            boundedLevenshtein(s.substr(0, cut), primer, max_edit);
        if (d < best_d) {
            best_d = d;
            best_cut = cut;
        }
    }
    if (best_d > max_edit)
        return std::nullopt;
    return best_cut;
}

} // namespace

std::optional<Strand>
stripPrimers(const PrimerPair &pair, const Strand &tagged,
             std::size_t max_edit)
{
    if (tagged.size() < pair.forward.size() + pair.reverse.size())
        return std::nullopt;

    const auto front = frontCut(pair.forward, tagged, max_edit);
    if (!front)
        return std::nullopt;

    // Strip the reverse primer by mirroring the strand.
    std::string flipped(tagged.rbegin(), tagged.rend());
    Strand reverse_mirrored(pair.reverse.rbegin(), pair.reverse.rend());
    const auto back = frontCut(reverse_mirrored, flipped, max_edit);
    if (!back)
        return std::nullopt;

    const std::size_t start = *front;
    const std::size_t end = tagged.size() - *back;
    if (end <= start)
        return std::nullopt;
    return tagged.substr(start, end - start);
}

} // namespace dnastore
