/**
 * @file
 * Arithmetic in GF(2^8) with the primitive polynomial
 * x^8 + x^4 + x^3 + x^2 + 1 (0x11D), plus dense polynomial helpers.
 * This is the field underlying the outer Reed-Solomon code of the
 * storage architecture (paper Section IV).
 *
 * The exp/log tables are compile-time constants and mul, div and
 * alphaPow are inline, so the Reed-Solomon kernels pay one table lookup
 * per product and no call.
 *
 * Polynomials are stored little-endian: coefficient i multiplies x^i.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore
{
namespace gf256
{

/** The generator element alpha = 0x02. */
inline constexpr std::uint8_t kAlpha = 0x02;

namespace detail
{

/** exp/log tables for 0x11D. */
struct Tables
{
    std::array<std::uint8_t, 512> exp{}; // doubled to skip a mod 255
    std::array<std::uint8_t, 256> log{}; // log[0] is unused
};

/** The tables, computed at compile time: exp[i] = alpha^i. */
inline constexpr Tables kTables = [] {
    Tables t;
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
        t.exp[i] = static_cast<std::uint8_t>(x);
        t.log[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11D;
    }
    for (unsigned i = 255; i < 512; ++i)
        t.exp[i] = t.exp[i - 255];
    return t;
}();

// exp and log invert each other on every nonzero element; a
// non-primitive polynomial would leave some element without a log.
static_assert(
    [] {
        for (unsigned a = 1; a < 256; ++a)
            if (kTables.exp[kTables.log[a]] != a)
                return false;
        return true;
    }(),
    "0x11D must generate the full multiplicative group");

/** Throws std::domain_error naming @p what (kept out of line). */
[[noreturn]] void throwDomainError(const char *what);

} // namespace detail

/** Field addition (= subtraction): XOR. */
constexpr std::uint8_t
add(std::uint8_t a, std::uint8_t b)
{
    return a ^ b;
}

/** Field multiplication via log/antilog tables. */
constexpr std::uint8_t
mul(std::uint8_t a, std::uint8_t b)
{
    if (a == 0 || b == 0)
        return 0;
    return detail::kTables.exp[detail::kTables.log[a] +
                               detail::kTables.log[b]];
}

/** Field division a / b; throws std::domain_error if b == 0. */
inline std::uint8_t
div(std::uint8_t a, std::uint8_t b)
{
    if (b == 0)
        detail::throwDomainError("gf256::div by zero");
    if (a == 0)
        return 0;
    return detail::kTables.exp[detail::kTables.log[a] + 255 -
                               detail::kTables.log[b]];
}

/** alpha^power (power taken mod 255, may be negative). */
constexpr std::uint8_t
alphaPow(int power)
{
    power %= 255;
    if (power < 0)
        power += 255;
    return detail::kTables.exp[static_cast<std::size_t>(power)];
}

/** Discrete log base alpha; throws std::domain_error for 0. */
int logOf(std::uint8_t a);

/** Multiplicative inverse; throws std::domain_error for 0. */
std::uint8_t inverse(std::uint8_t a);

/** a^power for non-negative power. */
std::uint8_t pow(std::uint8_t a, unsigned power);

/** Dense little-endian polynomial over GF(256). */
using Poly = std::vector<std::uint8_t>;

/** Degree of p (-1 for the zero polynomial). */
int degree(const Poly &p);

/** Remove trailing (high-degree) zero coefficients. */
void trim(Poly &p);

/** p + q. */
Poly polyAdd(const Poly &p, const Poly &q);

/** p * q (schoolbook). */
Poly polyMul(const Poly &p, const Poly &q);

/** p scaled by a field constant. */
Poly polyScale(const Poly &p, std::uint8_t c);

/** p mod x^k (truncate to the k low-order coefficients). */
Poly polyModXk(const Poly &p, std::size_t k);

/** Evaluate p at x (Horner). */
std::uint8_t polyEval(const Poly &p, std::uint8_t x);

/** Formal derivative of p (char-2: even-power terms vanish). */
Poly polyDerivative(const Poly &p);

/**
 * Division with remainder: p = q * d + r, deg r < deg d.
 * Throws std::domain_error if d is zero.
 */
void polyDivMod(const Poly &p, const Poly &d, Poly &q, Poly &r);

} // namespace gf256
} // namespace dnastore

