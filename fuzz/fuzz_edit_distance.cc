/**
 * @file
 * Differential fuzz harness for the bit-parallel edit-distance kernel
 * behind clustering's gray-zone checks, against the plain DP.
 *
 * Input layout: byte 0 is the threshold k, bytes 1-2 the length of a
 * (little-endian, clamped to what is left), then a, then b (the rest).
 * Any bytes are allowed, so alphabets beyond ACGT, more than four
 * symbols and empty strings are all reachable.  Properties checked:
 *  - withinEditDistance(a, b, k) == (levenshtein(a, b) <= k);
 *  - myersLevenshtein(a, b) == levenshtein(a, b).
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "dna/distance.hh"

namespace
{

void
check(bool condition)
{
    if (!condition)
        std::abort(); // a crash under libFuzzer and the corpus replay alike
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size < 3)
        return 0;
    const std::size_t k = data[0];
    const std::size_t rest = size - 3;
    const std::size_t a_len =
        std::min<std::size_t>(data[1] | (std::size_t{data[2]} << 8), rest);
    const char *bytes = reinterpret_cast<const char *>(data + 3);
    const std::string a(bytes, a_len);
    const std::string b(bytes + a_len, rest - a_len);

    const std::size_t exact = dnastore::levenshtein(a, b);
    check(dnastore::withinEditDistance(a, b, k) == (exact <= k));
    check(dnastore::myersLevenshtein(a, b) == exact);
    return 0;
}
