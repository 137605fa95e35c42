#include "ecc/reed_solomon.hh"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "util/assert.hh"
#include "util/hot.hh"

namespace dnastore
{

using gf256::Poly;

ReedSolomon::ReedSolomon(std::size_t n, std::size_t k) : n_(n), k_(k)
{
    if (n == 0 || n > 255)
        throw std::invalid_argument("ReedSolomon: n must be in [1, 255]");
    if (k == 0 || k >= n)
        throw std::invalid_argument("ReedSolomon: k must be in [1, n-1]");

    // g(x) = prod_{i=0}^{n-k-1} (x - alpha^i), little-endian and monic.
    Poly generator = {1};
    for (std::size_t i = 0; i < parity(); ++i) {
        const Poly factor = {gf256::alphaPow(static_cast<int>(i)), 1};
        generator = gf256::polyMul(generator, factor);
    }

    // Row f holds f * g_j for j = n-k-1 down to 0: the register update
    // of the encoder for feedback symbol f, highest degree first.
    const std::size_t p = parity();
    feedback_.resize(256 * p);
    for (std::size_t f = 0; f < 256; ++f) {
        for (std::size_t j = 0; j < p; ++j) {
            feedback_[f * p + j] = gf256::mul(static_cast<std::uint8_t>(f),
                                              generator[p - 1 - j]);
        }
    }
}

DNASTORE_HOT std::vector<std::uint8_t>
ReedSolomon::encode(std::span<const std::uint8_t> message) const
{
    if (message.size() != k_)
        throw std::invalid_argument("ReedSolomon::encode: message size");

    // Systematic LFSR: the parity field is the register of the division
    // of m(x) * x^(n-k) by g(x), highest degree first, so the remainder
    // lands where the codeword wants it (index k+j has degree n-k-1-j).
    const std::size_t p = parity();
    std::vector<std::uint8_t> codeword(n_, 0);
    std::copy(message.begin(), message.end(), codeword.begin());
    std::uint8_t *reg = codeword.data() + k_;
    for (const std::uint8_t symbol : message) {
        const std::uint8_t *row =
            feedback_.data() + static_cast<std::size_t>(symbol ^ reg[0]) * p;
        for (std::size_t j = 0; j + 1 < p; ++j)
            reg[j] = reg[j + 1] ^ row[j];
        reg[p - 1] = row[p - 1];
    }
    DNASTORE_DCHECK(isCodeword(codeword),
                    "systematic encoder must emit zero syndromes");
    return codeword;
}

DNASTORE_HOT Poly
ReedSolomon::syndromes(std::span<const std::uint8_t> codeword) const
{
    // S_j = sum_i c_i * alpha^(j * d_i), d_i = n-1-i the degree of index
    // i, summed in the log domain: a nonzero symbol contributes
    // exp[log c_i + j * d_i] to every S_j, and the p sums are
    // independent, so no multiply waits on the one before.
    const gf256::detail::Tables &t = gf256::detail::kTables;
    Poly s(parity(), 0);
    const std::size_t last = codeword.size() - 1;
    for (std::size_t i = 0; i < codeword.size(); ++i) {
        if (codeword[i] == 0)
            continue;
        const unsigned step = static_cast<unsigned>((last - i) % 255);
        unsigned e = t.log[codeword[i]];
        for (std::uint8_t &sj : s) {
            sj ^= t.exp[e];
            e += step;
            if (e >= 255)
                e -= 255;
        }
    }
    return s;
}

bool
ReedSolomon::isCodeword(std::span<const std::uint8_t> codeword) const
{
    if (codeword.size() != n_)
        return false;
    const Poly s = syndromes(codeword);
    return std::all_of(s.begin(), s.end(),
                       [](std::uint8_t v) { return v == 0; });
}

std::vector<std::uint8_t>
ReedSolomon::message(std::span<const std::uint8_t> codeword) const
{
    if (codeword.size() != n_)
        throw std::invalid_argument("ReedSolomon::message: codeword size");
    return {codeword.begin(), codeword.begin() + static_cast<long>(k_)};
}

ReedSolomon::DecodeResult
ReedSolomon::decode(std::span<std::uint8_t> codeword,
                    std::span<const std::size_t> erasure_positions) const
{
    DecodeResult result;
    if (codeword.size() != n_)
        throw std::invalid_argument("ReedSolomon::decode: codeword size");

    // Deduplicate and validate erasures, then blank them so the computed
    // magnitude equals the true symbol value.
    std::vector<std::size_t> erasures(erasure_positions.begin(),
                                      erasure_positions.end());
    std::sort(erasures.begin(), erasures.end());
    erasures.erase(std::unique(erasures.begin(), erasures.end()),
                   erasures.end());
    if (!erasures.empty() && erasures.back() >= n_)
        throw std::invalid_argument("ReedSolomon::decode: erasure index");
    for (std::size_t pos : erasures)
        codeword[pos] = 0;

    const std::size_t two_t = parity();
    const std::size_t rho = erasures.size();
    result.erasures = rho;
    if (rho > two_t)
        return result; // beyond any hope of correction

    const Poly s = syndromes(codeword);
    const bool clean = std::all_of(s.begin(), s.end(),
                                   [](std::uint8_t v) { return v == 0; });
    if (clean) {
        result.ok = true;
        return result;
    }

    // Erasure locator Gamma(x) = prod (1 - X_e x), X_e = alpha^(degree).
    Poly gamma = {1};
    for (std::size_t pos : erasures) {
        const std::uint8_t x_e =
            gf256::alphaPow(static_cast<int>(n_ - 1 - pos));
        gamma = gf256::polyMul(gamma, Poly{1, x_e});
    }

    // Modified syndrome Xi = S * Gamma mod x^{2t}.
    const Poly xi = gf256::polyModXk(gf256::polyMul(s, gamma), two_t);
    if (gf256::degree(xi) < 0)
        return result; // cannot happen with nonzero S (Gamma is a unit)

    // Sugiyama: run extended Euclid on (x^{2t}, Xi) until
    // 2*deg(r) < 2t + rho.
    Poly r_prev(two_t + 1, 0);
    r_prev[two_t] = 1;
    Poly r = xi;
    Poly v_prev = {};
    Poly v = {1};
    while (2 * gf256::degree(r) >= static_cast<int>(two_t + rho)) {
        Poly q, rem;
        gf256::polyDivMod(r_prev, r, q, rem);
        r_prev = std::move(r);
        r = std::move(rem);
        Poly v_next = gf256::polyAdd(v_prev, gf256::polyMul(q, v));
        v_prev = std::move(v);
        v = std::move(v_next);
        if (gf256::degree(r) < 0)
            return result; // degenerate: Xi divides x^{2t}
    }

    if (v.empty() || v[0] == 0)
        return result; // locator has no constant term: decoding failure
    const std::uint8_t norm = gf256::inverse(v[0]);
    const Poly lambda = gf256::polyScale(v, norm);
    const Poly omega = gf256::polyScale(r, norm);

    // Errata locator covers both unknown errors and erasures.
    const Poly psi = gf256::polyMul(lambda, gamma);
    const int psi_degree = gf256::degree(psi);
    if (psi_degree <= 0 || psi_degree > static_cast<int>(two_t))
        return result;

    // Chien search over valid codeword positions.
    std::vector<std::size_t> errata_positions;
    std::vector<std::uint8_t> errata_x;
    for (std::size_t pos = 0; pos < n_; ++pos) {
        const int deg = static_cast<int>(n_ - 1 - pos);
        const std::uint8_t x_inv = gf256::alphaPow(-deg);
        if (gf256::polyEval(psi, x_inv) == 0) {
            errata_positions.push_back(pos);
            errata_x.push_back(gf256::alphaPow(deg));
        }
    }
    if (static_cast<int>(errata_positions.size()) != psi_degree)
        return result; // locator roots outside the codeword: failure

    // Forney magnitudes: Y = X * Omega(X^{-1}) / Psi'(X^{-1}).
    const Poly psi_prime = gf256::polyDerivative(psi);
    for (std::size_t idx = 0; idx < errata_positions.size(); ++idx) {
        const std::uint8_t x = errata_x[idx];
        const std::uint8_t x_inv = gf256::inverse(x);
        const std::uint8_t denom = gf256::polyEval(psi_prime, x_inv);
        if (denom == 0)
            return result;
        const std::uint8_t num =
            gf256::mul(x, gf256::polyEval(omega, x_inv));
        const std::uint8_t magnitude = gf256::div(num, denom);
        codeword[errata_positions[idx]] ^= magnitude;
    }

    if (!isCodeword(codeword))
        return result;

    // Count true (non-erasure) error positions.
    std::size_t unknown_errors = 0;
    for (std::size_t pos : errata_positions) {
        if (!std::binary_search(erasures.begin(), erasures.end(), pos))
            ++unknown_errors;
    }
    result.errors = unknown_errors;
    result.ok = true;
    return result;
}

} // namespace dnastore
