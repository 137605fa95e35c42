/**
 * @file
 * The random probe set of the clustering signatures (paper Section VI).
 * A q-gram is a length-q substring; clustering compares reads via the
 * presence (q-gram signature) or first-occurrence position (w-gram
 * signature) of a random set of q-grams.
 */

#pragma once

#include <string>
#include <vector>

#include "util/random.hh"

namespace dnastore
{

/**
 * Generate num_grams distinct random q-grams over ACGT, used as the
 * probe set for signatures.  Requires num_grams <= 4^q.
 */
std::vector<std::string>
randomQGramSet(Rng &rng, std::size_t q, std::size_t num_grams);

} // namespace dnastore

