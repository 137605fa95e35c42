/**
 * @file
 * The generalized i.i.d. insertion/deletion/substitution channel of
 * Rashtchian et al. (paper Section V-A): at every index of the input
 * strand an insertion, deletion or substitution occurs independently
 * with user-specified probabilities.  This is the naive baseline
 * simulation most DNA-storage research uses, and the one the paper
 * shows to be unrealistically easy to reconstruct from.
 */

#pragma once

#include <array>

#include "simulator/channel.hh"

namespace dnastore
{

/** Per-index error probabilities of the i.i.d. channel. */
struct IidChannelConfig
{
    double p_insertion = 0.01;
    double p_deletion = 0.01;
    double p_substitution = 0.01;

    /** Split a total per-index error rate evenly across the 3 types. */
    [[nodiscard]] static IidChannelConfig
    fromTotalErrorRate(double total)
    {
        return {total / 3.0, total / 3.0, total / 3.0};
    }

    double total() const { return p_insertion + p_deletion + p_substitution; }
};

/**
 * Rashtchian-style i.i.d. IDS channel.  Per index, in order: an
 * insertion of a uniform base with probability p_insertion; then a
 * deletion with probability p_deletion; otherwise a substitution by
 * one of the three other bases with probability p_substitution.
 *
 * transmit() draws that law per error event, not per base: a geometric
 * gap to the next index with any event, then which of the five event
 * combinations (I, D, S, I+D, I+S) it is, weighted exactly.
 */
class IidChannel : public Channel
{
  public:
    explicit IidChannel(IidChannelConfig config = {});

    Strand transmit(const Strand &clean, Rng &rng) const override;

    std::string name() const override { return "iid-rashtchian"; }

    const IidChannelConfig &config() const { return cfg; }

  private:
    IidChannelConfig cfg;
    /** Probability that an index sees any event. */
    double p_any = 0.0;
    /** 1 / log(1 - p_any), for drawing the gap to the next event. */
    double inv_log_clean = 0.0;
    /** Cumulative weights of I, D, S, I+D (I+S takes the rest). */
    std::array<double, 4> kind_cdf{};
};

} // namespace dnastore

