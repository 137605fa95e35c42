/**
 * @file
 * Differential tests of the per-event i.i.d. channel against the
 * per-base reference in iid_reference.hh.  The two draw different
 * bytes from one seed, so they are compared in law: per-position
 * insertion, deletion and substitution rates of the aligned reads, the
 * read-length distribution, and (for the production channel) the
 * event totals it publishes, each within five binomial standard errors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "simulator/error_profile.hh"
#include "simulator/iid_channel.hh"
#include "simulator/iid_reference.hh"

namespace dnastore
{
namespace
{

constexpr std::size_t kReads = 10000;
constexpr std::size_t kLength = 50;
constexpr double kSigmas = 5.0;

struct RateCase
{
    const char *name;
    IidChannelConfig cfg;
};

// gtest prints a parameter it cannot format as its raw bytes, and the
// bytes of `name` are an address that moves with every process, so the
// case names listed to ctest would change from one build to the next.
// The test name already carries `name`; print the rates, short enough
// that every listed name stays within 100 characters.
void
PrintTo(const RateCase &c, std::ostream *os)
{
    *os << c.cfg.p_insertion << '/' << c.cfg.p_deletion << '/'
        << c.cfg.p_substitution;
}

/** kReads reads of one clean strand, and the strand repeated alongside. */
struct Sample
{
    std::vector<Strand> clean;
    std::vector<Strand> reads;
};

template <typename Transmit>
Sample
draw(const Strand &strand, std::uint64_t seed, Transmit transmit)
{
    Rng rng(seed);
    Sample sample;
    sample.clean.assign(kReads, strand);
    sample.reads.reserve(kReads);
    for (std::size_t i = 0; i < kReads; ++i)
        sample.reads.push_back(transmit(strand, rng));
    return sample;
}

/** Two proportions, each over @p n trials, agree within kSigmas. */
void
expectSameProportion(double a, double b, double n, const std::string &what)
{
    const double pooled = (a + b) / 2.0;
    const double sigma = std::sqrt(pooled * (1.0 - pooled) * 2.0 / n);
    EXPECT_LE(std::abs(a - b), kSigmas * sigma + 1e-12)
        << what << ": " << a << " vs " << b;
}

/** An observed proportion over @p n trials matches @p p within kSigmas. */
void
expectProportion(double observed, double p, double n, const std::string &what)
{
    const double sigma = std::sqrt(p * (1.0 - p) / n);
    EXPECT_LE(std::abs(observed - p), kSigmas * sigma + 1e-12)
        << what << ": " << observed << " vs " << p;
}

void
expectSameRates(const std::vector<double> &a, const std::vector<double> &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        expectSameProportion(a[i], b[i], static_cast<double>(kReads),
                             what + " at " + std::to_string(i));
    }
}

std::map<std::size_t, double>
lengthShares(const std::vector<Strand> &reads)
{
    std::map<std::size_t, double> shares;
    for (const Strand &read : reads)
        shares[read.size()] += 1.0 / static_cast<double>(reads.size());
    return shares;
}

class IidDifferential : public ::testing::TestWithParam<RateCase>
{
};

TEST_P(IidDifferential, MatchesPerBaseReferenceInLaw)
{
    const IidChannelConfig cfg = GetParam().cfg;
    const IidChannel channel(cfg);
    Rng strand_rng(1);
    const Strand strand = strand::random(strand_rng, kLength);

    obs::MetricsRegistry &reg = obs::metrics();
    const std::uint64_t ins0 = reg.counter("channel.insertions_total").value();
    const std::uint64_t del0 = reg.counter("channel.deletions_total").value();
    const std::uint64_t sub0 =
        reg.counter("channel.substitutions_total").value();
    const Sample fresh = draw(strand, 2, [&](const Strand &s, Rng &rng) {
        return channel.transmit(s, rng);
    });
    const double bases = static_cast<double>(kReads * kLength);
    const auto share = [&](const char *name, std::uint64_t before) {
        return static_cast<double>(reg.counter(name).value() - before) /
            bases;
    };
    // What the channel says it did, against the per-base law.
    expectProportion(share("channel.insertions_total", ins0),
                     cfg.p_insertion, bases, "insertions per base");
    expectProportion(share("channel.deletions_total", del0), cfg.p_deletion,
                     bases, "deletions per base");
    expectProportion(share("channel.substitutions_total", sub0),
                     (1.0 - cfg.p_deletion) * cfg.p_substitution, bases,
                     "substitutions per base");

    const Sample ref = draw(strand, 3, [&](const Strand &s, Rng &rng) {
        return reference::perBaseIidTransmit(cfg, s, rng);
    });
    if (cfg.total() == 0.0) {
        EXPECT_EQ(fresh.reads, fresh.clean);
        EXPECT_EQ(ref.reads, ref.clean);
        return;
    }

    // What an aligner sees in the reads.
    const ChannelErrorProfile a = measureChannelErrors(fresh.clean,
                                                       fresh.reads);
    const ChannelErrorProfile b = measureChannelErrors(ref.clean, ref.reads);
    expectSameRates(a.insertion_rate, b.insertion_rate, "insertion");
    expectSameRates(a.deletion_rate, b.deletion_rate, "deletion");
    expectSameRates(a.substitution_rate, b.substitution_rate,
                    "substitution");

    // Read lengths: every length's share, and the mean.
    const auto shares_a = lengthShares(fresh.reads);
    const auto shares_b = lengthShares(ref.reads);
    std::map<std::size_t, std::pair<double, double>> both;
    for (const auto &[length, p] : shares_a)
        both[length].first = p;
    for (const auto &[length, p] : shares_b)
        both[length].second = p;
    for (const auto &[length, p] : both) {
        expectSameProportion(p.first, p.second, static_cast<double>(kReads),
                             "length " + std::to_string(length));
    }
    double mean_a = 0.0, mean_b = 0.0, var_a = 0.0, var_b = 0.0;
    for (const auto &[length, p] : both) {
        mean_a += p.first * static_cast<double>(length);
        mean_b += p.second * static_cast<double>(length);
    }
    for (const auto &[length, p] : both) {
        const double l = static_cast<double>(length);
        var_a += p.first * (l - mean_a) * (l - mean_a);
        var_b += p.second * (l - mean_b) * (l - mean_b);
    }
    EXPECT_LE(std::abs(mean_a - mean_b),
              kSigmas * std::sqrt((var_a + var_b) /
                                  static_cast<double>(kReads)) +
                  1e-12)
        << "mean read length " << mean_a << " vs " << mean_b;
}

INSTANTIATE_TEST_SUITE_P(
    Rates, IidDifferential,
    ::testing::Values(RateCase{"AllZero", {0.0, 0.0, 0.0}},
                      RateCase{"InsertionOnly", {0.1, 0.0, 0.0}},
                      RateCase{"DeletionOnly", {0.0, 0.1, 0.0}},
                      RateCase{"SubstitutionOnly", {0.0, 0.0, 0.1}},
                      RateCase{"Even6Percent", {0.02, 0.02, 0.02}},
                      RateCase{"Mixed", {0.05, 0.1, 0.2}},
                      RateCase{"NearOne", {0.33, 0.33, 0.33}},
                      RateCase{"InsertDeleteSumToOne", {0.5, 0.5, 0.0}},
                      RateCase{"DeleteEverything", {0.0, 1.0, 0.0}}),
    [](const ::testing::TestParamInfo<RateCase> &param_info) {
        return std::string(param_info.param.name);
    });

} // namespace
} // namespace dnastore
