/**
 * @file
 * Fuzz harness for ReedSolomon errors-and-erasures decoding, the outer
 * code that turns lost molecules into erasures and corrupted molecules
 * into symbol errors.
 *
 * The input selects a geometry (n, k), a message, and an errata plan
 * (error positions/values plus erasure positions).  Properties checked:
 *  - encode's parity equals the remainder of m(x) * x^(n-k) divided by
 *    the generator g(x) = prod (x - alpha^i), computed independently
 *    with gf256::polyDivMod;
 *  - decode never crashes on any codeword, corrupted or random;
 *  - within the guaranteed radius (2*errors + erasures <= n - k) the
 *    decoder MUST recover the original codeword exactly and report ok;
 *  - whenever decode reports ok the result verifies (isCodeword).
 */

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "ecc/gf256.hh"
#include "ecc/reed_solomon.hh"

namespace
{

void
check(bool condition)
{
    if (!condition)
        std::abort();
}

/** Sequential byte reader over the fuzz input. */
struct Input
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    std::uint8_t
    next()
    {
        return pos < size ? data[pos++] : 0;
    }
    bool exhausted() const { return pos >= size; }
};

/**
 * The systematic codeword by polynomial division: message index i has
 * degree n-1-i, parity index k+j degree n-k-1-j.
 */
std::vector<std::uint8_t>
divisionCodeword(std::size_t n, std::size_t k,
                 const std::vector<std::uint8_t> &message)
{
    namespace gf256 = dnastore::gf256;
    gf256::Poly generator = {1};
    for (std::size_t i = 0; i < n - k; ++i) {
        const gf256::Poly factor = {gf256::alphaPow(static_cast<int>(i)), 1};
        generator = gf256::polyMul(generator, factor);
    }
    gf256::Poly shifted(n, 0);
    for (std::size_t i = 0; i < k; ++i)
        shifted[n - 1 - i] = message[i];
    gf256::Poly quotient, remainder;
    gf256::polyDivMod(shifted, generator, quotient, remainder);

    std::vector<std::uint8_t> codeword = message;
    codeword.resize(n, 0);
    for (std::size_t deg = 0; deg < remainder.size(); ++deg)
        codeword[n - 1 - deg] = remainder[deg];
    return codeword;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size < 2)
        return 0;
    Input in{data, size};

    const std::size_t n = 2 + in.next() % 254;      // [2, 255]
    const std::size_t k = 1 + in.next() % (n - 1);  // [1, n-1]
    const dnastore::ReedSolomon rs(n, k);

    std::vector<std::uint8_t> message(k);
    for (auto &symbol : message)
        symbol = in.next();
    const auto original = rs.encode(message);
    check(rs.isCodeword(original));
    check(rs.message(original) == message);
    check(original == divisionCodeword(n, k, message));

    // Errata plan: alternate (position, value) error pairs and erasure
    // positions until the input runs dry.
    auto codeword = original;
    std::vector<std::size_t> erasures;
    const std::size_t num_errors = in.next() % (n + 1);
    for (std::size_t e = 0; e < num_errors && !in.exhausted(); ++e) {
        const std::size_t pos = in.next() % n;
        codeword[pos] ^= in.next(); // XOR 0 keeps the symbol intact
    }
    const std::size_t num_erasures = in.next() % (n + 1);
    for (std::size_t e = 0; e < num_erasures && !in.exhausted(); ++e)
        erasures.push_back(in.next() % n);

    // Count the actual damage (deduplicated, erasures excluded).
    std::vector<bool> erased(n, false);
    for (std::size_t pos : erasures)
        erased[pos] = true;
    std::size_t true_errors = 0;
    std::size_t true_erasures = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (erased[i])
            ++true_erasures;
        else if (codeword[i] != original[i])
            ++true_errors;
    }

    const auto result = rs.decode(codeword, erasures);
    if (2 * true_errors + true_erasures <= n - k) {
        check(result.ok);
        check(codeword == original);
        check(rs.message(codeword) == message);
    }
    if (result.ok)
        check(rs.isCodeword(codeword));

    // Arbitrary-garbage codeword: anything goes except a crash.
    std::vector<std::uint8_t> garbage(n);
    for (auto &symbol : garbage)
        symbol = in.next();
    const auto garbage_result = rs.decode(garbage);
    if (garbage_result.ok)
        check(rs.isCodeword(garbage));
    return 0;
}
