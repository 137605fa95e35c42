#include "codec/primer.hh"

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

} // namespace dnastore
