#include "core/fault.hh"

#include <algorithm>
#include <utility>

namespace dnastore
{

namespace
{

/**
 * Alphabet for garbage reads: valid bases mixed with the junk a real
 * FASTQ can contain (ambiguity codes, soft-masked bases, gaps).
 */
constexpr char kGarbageAlphabet[] = "ACGTNRYacgtn.-";
constexpr std::size_t kGarbageAlphabetSize = sizeof(kGarbageAlphabet) - 1;

/** Largest fraction of a read a truncation may remove. */
constexpr double kMaxTruncation = 0.5;
/** Largest fraction of a read an elongation may append. */
constexpr double kMaxElongation = 0.25;

Strand
garbageStrand(Rng &rng, std::size_t reference_length)
{
    // Anything from an empty read to twice the nominal length.
    const std::size_t length = rng.below(2 * reference_length + 1);
    Strand s(length, 'N');
    for (auto &c : s)
        c = kGarbageAlphabet[rng.below(kGarbageAlphabetSize)];
    return s;
}

} // namespace

bool
FaultPlan::anyReadFaults() const
{
    return strand_dropout > 0.0 || read_truncation > 0.0 ||
        read_elongation > 0.0 || index_corruption > 0.0 ||
        duplicate_conflict > 0.0 || garbage_read > 0.0;
}

bool
FaultPlan::anyClusterFaults() const
{
    return cluster_drop > 0.0 || cluster_merge > 0.0;
}

std::size_t
FaultCounters::total() const
{
    return dropped_strands + truncated_reads + elongated_reads +
        corrupted_indices + duplicate_conflicts + garbage_reads +
        emptied_clusters + merged_clusters;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), rng_(plan.seed)
{
}

void
FaultInjector::injectStrands(std::vector<Strand> &strands)
{
    if (plan_.strand_dropout <= 0.0)
        return;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < strands.size(); ++i) {
        if (rng_.chance(plan_.strand_dropout)) {
            ++counters_.dropped_strands;
            continue;
        }
        if (kept != i) // avoid self-move
            strands[kept] = std::move(strands[i]);
        ++kept;
    }
    strands.resize(kept);
}

void
FaultInjector::injectReads(std::vector<Strand> &reads,
                           std::vector<std::uint32_t> *origins)
{
    // Duplicate-conflict reads are appended after the pass so the loop
    // never iterates over its own products.
    std::vector<Strand> extra_reads;
    std::vector<std::uint32_t> extra_origins;

    for (std::size_t i = 0; i < reads.size(); ++i) {
        Strand &read = reads[i];
        if (plan_.garbage_read > 0.0 && rng_.chance(plan_.garbage_read)) {
            read = garbageStrand(rng_, std::max<std::size_t>(read.size(), 1));
            ++counters_.garbage_reads;
            continue; // a garbage read needs no further mangling
        }
        if (plan_.read_truncation > 0.0 && !read.empty() &&
            rng_.chance(plan_.read_truncation)) {
            const std::size_t max_cut = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       kMaxTruncation * static_cast<double>(read.size())));
            read.resize(read.size() - 1 - rng_.below(max_cut));
            ++counters_.truncated_reads;
        }
        if (plan_.read_elongation > 0.0 && !read.empty() &&
            rng_.chance(plan_.read_elongation)) {
            const std::size_t max_add = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       kMaxElongation * static_cast<double>(read.size())));
            read += strand::random(rng_, 1 + rng_.below(max_add));
            ++counters_.elongated_reads;
        }
        if (plan_.index_corruption > 0.0 && plan_.index_nt > 0 &&
            read.size() >= plan_.index_nt &&
            rng_.chance(plan_.index_corruption)) {
            const Strand junk = strand::random(rng_, plan_.index_nt);
            std::copy(junk.begin(), junk.end(), read.begin());
            ++counters_.corrupted_indices;
        }
        if (plan_.duplicate_conflict > 0.0 && plan_.index_nt > 0 &&
            read.size() > plan_.index_nt &&
            rng_.chance(plan_.duplicate_conflict)) {
            // Same index field, freshly random payload: two molecules now
            // claim one address with disagreeing contents.
            extra_reads.push_back(
                read.substr(0, plan_.index_nt) +
                strand::random(rng_, read.size() - plan_.index_nt));
            if (origins)
                extra_origins.push_back((*origins)[i]);
            ++counters_.duplicate_conflicts;
        }
    }

    for (auto &read : extra_reads)
        reads.push_back(std::move(read));
    if (origins)
        origins->insert(origins->end(), extra_origins.begin(),
                        extra_origins.end());
}

void
FaultInjector::injectClusters(
    std::vector<std::vector<Strand>> &groups,
    std::vector<std::vector<std::uint32_t>> *origins)
{
    for (std::size_t i = 0; i < groups.size(); ++i) {
        if (groups[i].empty())
            continue;
        if (plan_.cluster_drop > 0.0 && rng_.chance(plan_.cluster_drop)) {
            groups[i].clear();
            if (origins)
                (*origins)[i].clear();
            ++counters_.emptied_clusters;
            continue;
        }
        if (plan_.cluster_merge > 0.0 && groups.size() > 1 &&
            rng_.chance(plan_.cluster_merge)) {
            std::size_t j = rng_.below(groups.size() - 1);
            if (j >= i)
                ++j; // uniform over the other groups
            std::move(groups[i].begin(), groups[i].end(),
                      std::back_inserter(groups[j]));
            groups[i].clear();
            if (origins) {
                auto &src = (*origins)[i];
                auto &dst = (*origins)[j];
                dst.insert(dst.end(), src.begin(), src.end());
                src.clear();
            }
            ++counters_.merged_clusters;
        }
    }
}

} // namespace dnastore
