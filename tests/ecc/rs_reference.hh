/**
 * @file
 * Reference Reed-Solomon encoder and syndrome computation: the
 * polynomial-division encoder and the mul-per-product syndromes that
 * ReedSolomon used before its table-driven kernels, kept verbatim as
 * free functions so the differential suite can check the kernels
 * byte for byte.  Test-only; nothing in src/ includes it.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "ecc/gf256.hh"

namespace dnastore
{
namespace rs_reference
{

using gf256::Poly;

/** g(x) = prod_{i=0}^{n-k-1} (x - alpha^i), little-endian. */
inline Poly
generator(std::size_t n, std::size_t k)
{
    Poly g = {1};
    for (std::size_t i = 0; i < n - k; ++i) {
        const Poly factor = {gf256::alphaPow(static_cast<int>(i)), 1};
        g = gf256::polyMul(g, factor);
    }
    return g;
}

/** Systematic RS(n, k) codeword of @p message by polynomial division. */
inline std::vector<std::uint8_t>
encode(std::size_t n, std::size_t k, std::span<const std::uint8_t> message)
{
    if (message.size() != k)
        throw std::invalid_argument("rs_reference::encode: message size");
    const std::size_t parity = n - k;

    // m(x) * x^(n-k) in little-endian layout; message index i has degree
    // n-1-i.
    Poly shifted(n, 0);
    for (std::size_t i = 0; i < k; ++i)
        shifted[n - 1 - i] = message[i];

    Poly quotient, remainder;
    gf256::polyDivMod(shifted, generator(n, k), quotient, remainder);

    std::vector<std::uint8_t> codeword(n, 0);
    std::copy(message.begin(), message.end(), codeword.begin());
    // Parity symbol j sits at codeword index k+j, i.e. degree n-k-1-j.
    for (std::size_t j = 0; j < parity; ++j) {
        const std::size_t deg = parity - 1 - j;
        codeword[k + j] = deg < remainder.size() ? remainder[deg] : 0;
    }
    return codeword;
}

/** The n-k syndromes of an n-symbol word, one mul per product. */
inline Poly
syndromes(std::size_t n, std::size_t k,
          std::span<const std::uint8_t> codeword)
{
    Poly s(n - k, 0);
    for (std::size_t j = 0; j < n - k; ++j) {
        const std::uint8_t x = gf256::alphaPow(static_cast<int>(j));
        std::uint8_t acc = 0;
        for (std::size_t i = 0; i < n; ++i)
            acc = static_cast<std::uint8_t>(gf256::mul(acc, x) ^ codeword[i]);
        s[j] = acc;
    }
    return s;
}

} // namespace rs_reference
} // namespace dnastore
