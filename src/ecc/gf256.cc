#include "ecc/gf256.hh"

#include <algorithm>
#include <stdexcept>

namespace dnastore
{
namespace gf256
{

using detail::kTables;

void
detail::throwDomainError(const char *what)
{
    throw std::domain_error(what);
}

int
logOf(std::uint8_t a)
{
    if (a == 0)
        throw std::domain_error("gf256::logOf(0)");
    return kTables.log[a];
}

std::uint8_t
inverse(std::uint8_t a)
{
    if (a == 0)
        throw std::domain_error("gf256::inverse(0)");
    return kTables.exp[255 - kTables.log[a]];
}

std::uint8_t
pow(std::uint8_t a, unsigned power)
{
    if (power == 0)
        return 1;
    if (a == 0)
        return 0;
    const long exponent =
        static_cast<long>(kTables.log[a]) * static_cast<long>(power % 255);
    return kTables.exp[static_cast<std::size_t>(exponent % 255)];
}

int
degree(const Poly &p)
{
    for (std::size_t i = p.size(); i > 0; --i)
        if (p[i - 1] != 0)
            return static_cast<int>(i) - 1;
    return -1;
}

void
trim(Poly &p)
{
    while (!p.empty() && p.back() == 0)
        p.pop_back();
}

Poly
polyAdd(const Poly &p, const Poly &q)
{
    Poly out(std::max(p.size(), q.size()), 0);
    for (std::size_t i = 0; i < p.size(); ++i)
        out[i] ^= p[i];
    for (std::size_t i = 0; i < q.size(); ++i)
        out[i] ^= q[i];
    trim(out);
    return out;
}

Poly
polyMul(const Poly &p, const Poly &q)
{
    if (p.empty() || q.empty())
        return {};
    Poly out(p.size() + q.size() - 1, 0);
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] == 0)
            continue;
        for (std::size_t j = 0; j < q.size(); ++j)
            out[i + j] ^= mul(p[i], q[j]);
    }
    trim(out);
    return out;
}

Poly
polyScale(const Poly &p, std::uint8_t c)
{
    Poly out(p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        out[i] = mul(p[i], c);
    trim(out);
    return out;
}

Poly
polyModXk(const Poly &p, std::size_t k)
{
    Poly out(p.begin(), p.begin() + std::min(p.size(), k));
    trim(out);
    return out;
}

std::uint8_t
polyEval(const Poly &p, std::uint8_t x)
{
    std::uint8_t acc = 0;
    for (std::size_t i = p.size(); i > 0; --i)
        acc = static_cast<std::uint8_t>(mul(acc, x) ^ p[i - 1]);
    return acc;
}

Poly
polyDerivative(const Poly &p)
{
    // d/dx sum c_i x^i = sum (i mod 2) c_i x^{i-1} in characteristic 2.
    Poly out;
    if (p.size() <= 1)
        return out;
    out.resize(p.size() - 1, 0);
    for (std::size_t i = 1; i < p.size(); i += 2)
        out[i - 1] = p[i];
    trim(out);
    return out;
}

void
polyDivMod(const Poly &p, const Poly &d, Poly &q, Poly &r)
{
    const int dd = degree(d);
    if (dd < 0)
        throw std::domain_error("gf256::polyDivMod by zero polynomial");
    r = p;
    trim(r);
    q.assign(r.size() > static_cast<std::size_t>(dd)
                 ? r.size() - static_cast<std::size_t>(dd)
                 : 1,
             0);
    const std::uint8_t lead_inv = inverse(d[static_cast<std::size_t>(dd)]);
    while (degree(r) >= dd) {
        const int dr = degree(r);
        const std::uint8_t coeff =
            mul(r[static_cast<std::size_t>(dr)], lead_inv);
        const std::size_t shift = static_cast<std::size_t>(dr - dd);
        q[shift] = coeff;
        for (int i = 0; i <= dd; ++i) {
            r[shift + static_cast<std::size_t>(i)] ^=
                mul(coeff, d[static_cast<std::size_t>(i)]);
        }
        trim(r);
    }
    trim(q);
}

} // namespace gf256
} // namespace dnastore
