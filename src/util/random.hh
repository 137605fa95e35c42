/**
 * @file
 * Deterministic pseudo-random number generation for the toolkit.
 *
 * All stochastic components of the pipeline (channel simulators, clustering
 * anchors, coverage draws, ...) draw from Rng so that every experiment is
 * reproducible from a single 64-bit seed.  The generator is xoshiro256**,
 * seeded through SplitMix64; both are implemented here rather than relying
 * on std:: distributions so that results are identical across standard
 * library implementations.
 */

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace dnastore
{

/**
 * SplitMix64 generator, used to expand a single seed into a full
 * xoshiro256** state.  Also usable standalone for cheap hashing.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64 pseudo-random bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Seed of stream @p index under @p base: distinct indices give
 * decorrelated seeds, so per-item Rng(mixSeed(base, i)) streams can be
 * drawn in any order, or in parallel, with the same result.
 */
inline std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t index)
{
    return SplitMix64(base ^ (index * 0x9e3779b97f4a7c15ULL)).next();
}

/**
 * xoshiro256** PRNG with convenience distributions.
 *
 * Satisfies UniformRandomBitGenerator so it can also be plugged into
 * std:: algorithms (e.g. std::shuffle).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64 bits. */
    result_type operator()() { return next(); }

    /** Next raw 64 bits. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0. Unbiased (Lemire). */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * Geometric number of failures before first success; p in (0,1].
     * Saturates at UINT64_MAX when the draw is 2^64 or more.
     */
    std::uint64_t geometric(double p);

    /** Poisson draw (Knuth's method; intended for small lambda). */
    std::uint64_t poisson(double lambda);

    /** Standard normal draw (Box-Muller, cached second value). */
    double normal();

    /** Normal draw with mean/stddev. */
    double normal(double mean, double stddev);

    /** Log-normal draw parameterised by the underlying normal. */
    double logNormal(double mu, double sigma);

    /**
     * Sample an index according to non-negative weights.
     * Weights need not be normalised; total must be positive.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Sample k distinct indices from [0, n) (k <= n), in random order. */
    std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k);

    /** Derive an independent child generator (for per-thread streams). */
    Rng split();

  private:
    std::array<std::uint64_t, 4> s;
    bool hasCachedNormal = false;
    double cachedNormal = 0.0;
};

/**
 * Seeded Zipfian index sampler over [0, n): item k is drawn with
 * probability proportional to 1 / (k+1)^s.  Precomputes the CDF once
 * and samples by binary search, so draws are O(log n) and the
 * popularity skew is exactly reproducible from the seed — the shape of
 * real object-store traffic the server-load generator and the
 * coalescing tests rely on (a few hot objects, a long cold tail).
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of items (>= 1; 0 is clamped to 1).
     * @param skew Zipf exponent s (>= 0; 0 degenerates to uniform).
     * @param seed RNG seed for the draw stream.
     */
    ZipfSampler(std::size_t n, double skew, std::uint64_t seed);

    /** Draw one index in [0, n). */
    std::size_t next();

    /** Probability mass of item @p k (diagnostics/tests). */
    double probability(std::size_t k) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_; //!< Inclusive cumulative masses, last = 1.
    Rng rng_;
};

} // namespace dnastore

