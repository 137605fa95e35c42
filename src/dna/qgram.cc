#include "dna/qgram.hh"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "dna/strand.hh"

namespace dnastore
{

std::vector<std::string>
randomQGramSet(Rng &rng, std::size_t q, std::size_t num_grams)
{
    if (q == 0)
        throw std::invalid_argument("randomQGramSet: q must be positive");
    // 4^q possible grams; reject when the request cannot be satisfied.
    const double capacity = std::pow(4.0, static_cast<double>(q));
    if (static_cast<double>(num_grams) > capacity)
        throw std::invalid_argument("randomQGramSet: num_grams exceeds 4^q");

    std::unordered_set<std::string> seen;
    std::vector<std::string> out;
    out.reserve(num_grams);
    while (out.size() < num_grams) {
        std::string gram = strand::random(rng, q);
        if (seen.insert(gram).second)
            out.push_back(std::move(gram));
    }
    return out;
}

} // namespace dnastore
