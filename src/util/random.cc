#include "util/random.hh"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dnastore
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s)
        word = sm.next();
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    assert(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double
Rng::uniform()
{
    // 53 random bits into [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p)
{
    assert(p > 0.0 && p <= 1.0);
    if (p >= 1.0)
        return 0;
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    // For p below about 2e-18 the quotient can reach 2^64, where the
    // conversion would be undefined: saturate instead.
    const double failures = std::log(u) / std::log1p(-p);
    if (failures >= 0x1.0p64)
        return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(failures);
}

std::uint64_t
Rng::poisson(double lambda)
{
    assert(lambda >= 0.0);
    if (lambda <= 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth: multiply uniforms until below e^-lambda.
        const double limit = std::exp(-lambda);
        std::uint64_t k = 0;
        double prod = uniform();
        while (prod > limit) {
            ++k;
            prod *= uniform();
        }
        return k;
    }
    // Normal approximation for large lambda, adequate for coverage draws.
    double draw = normal(lambda, std::sqrt(lambda));
    return draw < 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    double u1 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        assert(w >= 0.0);
        total += w;
    }
    if (total <= 0.0)
        throw std::invalid_argument("weightedIndex: total weight is zero");
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::vector<std::size_t>
Rng::sampleIndices(std::size_t n, std::size_t k)
{
    assert(k <= n);
    // Partial Fisher-Yates over an index vector; O(n) setup, fine for the
    // sampling sizes used in this toolkit.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = i + below(n - i);
        std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0x9e3779b97f4a7c15ULL);
}

ZipfSampler::ZipfSampler(std::size_t n, double skew, std::uint64_t seed)
    : rng_(seed)
{
    if (n == 0)
        n = 1;
    if (skew < 0.0)
        skew = 0.0;
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
        cdf_[k] = total;
    }
    for (double &c : cdf_)
        c /= total;
    cdf_.back() = 1.0; // Guard against accumulated rounding.
}

std::size_t
ZipfSampler::next()
{
    const double u = rng_.uniform();
    // First index whose cumulative mass exceeds u.
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] > u)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

double
ZipfSampler::probability(std::size_t k) const
{
    if (k >= cdf_.size())
        return 0.0;
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

} // namespace dnastore
