/**
 * @file
 * Tests for the fault-injection subsystem: determinism, per-fault-type
 * counters, and ground-truth alignment under destructive faults.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/fault.hh"
#include "dna/strand.hh"
#include "util/random.hh"

namespace dnastore
{
namespace
{

std::vector<Strand>
makeReads(Rng &rng, std::size_t count, std::size_t length)
{
    std::vector<Strand> reads;
    reads.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        reads.push_back(strand::random(rng, length));
    return reads;
}

TEST(FaultInjector, DefaultPlanInjectsNothing)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.anyReadFaults());
    EXPECT_FALSE(plan.anyClusterFaults());

    FaultInjector injector(plan);
    Rng rng(1);
    auto strands = makeReads(rng, 50, 100);
    const auto before = strands;
    injector.injectStrands(strands);
    injector.injectReads(strands);
    EXPECT_EQ(strands, before);
    EXPECT_EQ(injector.counters().total(), 0u);
}

TEST(FaultInjector, StrandDropoutRemovesAndCounts)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.strand_dropout = 0.2;
    FaultInjector injector(plan);
    Rng rng(2);
    auto strands = makeReads(rng, 500, 80);
    injector.injectStrands(strands);
    const auto &counters = injector.counters();
    EXPECT_EQ(strands.size() + counters.dropped_strands, 500u);
    EXPECT_GT(counters.dropped_strands, 50u);
    EXPECT_LT(counters.dropped_strands, 180u);
}

TEST(FaultInjector, SameSeedSameFaults)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.read_truncation = 0.1;
    plan.read_elongation = 0.1;
    plan.index_corruption = 0.05;
    plan.garbage_read = 0.05;
    plan.duplicate_conflict = 0.05;

    Rng rng(3);
    const auto reads = makeReads(rng, 300, 120);

    auto a = reads;
    auto b = reads;
    FaultInjector first(plan);
    FaultInjector second(plan);
    first.injectReads(a);
    second.injectReads(b);
    EXPECT_EQ(a, b);

    // A later fresh injector replays the identical fault pattern.
    auto c = reads;
    FaultInjector replay(plan);
    replay.injectReads(c);
    EXPECT_EQ(a, c);
}

TEST(FaultInjector, ReadFaultCountersMatchObservedDamage)
{
    FaultPlan plan;
    plan.seed = 777;
    plan.index_nt = 12;
    plan.read_truncation = 0.1;
    plan.garbage_read = 0.08;
    plan.duplicate_conflict = 0.06;
    FaultInjector injector(plan);

    Rng rng(4);
    const std::size_t n = 1000;
    auto reads = makeReads(rng, n, 120);
    std::vector<std::uint32_t> origins(n);
    std::iota(origins.begin(), origins.end(), 0);

    injector.injectReads(reads, &origins);
    const auto &counters = injector.counters();

    // Origins stay aligned even when reads are appended.
    ASSERT_EQ(reads.size(), origins.size());
    EXPECT_EQ(reads.size(), n + counters.duplicate_conflicts);
    EXPECT_GT(counters.truncated_reads, 0u);
    EXPECT_GT(counters.garbage_reads, 0u);
    EXPECT_GT(counters.duplicate_conflicts, 0u);

    std::size_t short_reads = 0;
    std::size_t invalid_reads = 0;
    for (const auto &read : reads) {
        if (read.size() < 120)
            ++short_reads;
        if (!strand::isValid(read))
            ++invalid_reads;
    }
    // Every truncation produced a short read; garbage may be any length.
    EXPECT_GE(short_reads, counters.truncated_reads);
    EXPECT_LE(invalid_reads, counters.garbage_reads);
    EXPECT_GT(invalid_reads, 0u);
}

TEST(FaultInjector, IndexCorruptionKeepsLengthAndAlphabet)
{
    FaultPlan plan;
    plan.seed = 31;
    plan.index_nt = 10;
    plan.index_corruption = 1.0; // corrupt every index deterministically
    FaultInjector injector(plan);

    Rng rng(5);
    auto reads = makeReads(rng, 20, 60);
    const auto before = reads;
    injector.injectReads(reads);

    ASSERT_EQ(reads.size(), before.size());
    EXPECT_EQ(injector.counters().corrupted_indices, 20u);
    for (std::size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(reads[i].size(), before[i].size());
        EXPECT_TRUE(strand::isValid(reads[i]));
        // Payload beyond the index field is untouched.
        EXPECT_EQ(reads[i].substr(10), before[i].substr(10));
    }
}

TEST(FaultInjector, DuplicateConflictCopiesIndexField)
{
    FaultPlan plan;
    plan.seed = 47;
    plan.index_nt = 8;
    plan.duplicate_conflict = 1.0;
    FaultInjector injector(plan);

    Rng rng(6);
    auto reads = makeReads(rng, 10, 40);
    injector.injectReads(reads);
    ASSERT_EQ(reads.size(), 20u);
    for (std::size_t i = 0; i < 10; ++i) {
        // The clone claims the same address with a different payload.
        EXPECT_EQ(reads[10 + i].substr(0, 8), reads[i].substr(0, 8));
        EXPECT_EQ(reads[10 + i].size(), reads[i].size());
        EXPECT_NE(reads[10 + i], reads[i]);
    }
}

TEST(FaultInjector, ClusterFaultsEmptyAndMergeInPlace)
{
    FaultPlan plan;
    plan.seed = 52;
    plan.cluster_drop = 0.3;
    plan.cluster_merge = 0.3;
    FaultInjector injector(plan);

    Rng rng(7);
    std::vector<std::vector<Strand>> groups(40);
    std::vector<std::vector<std::uint32_t>> origins(40);
    std::size_t total_reads = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::size_t size = 1 + rng.below(6);
        groups[g] = makeReads(rng, size, 30);
        origins[g].assign(size, static_cast<std::uint32_t>(g));
        total_reads += size;
    }

    injector.injectClusters(groups, &origins);
    const auto &counters = injector.counters();
    EXPECT_GT(counters.emptied_clusters, 0u);
    EXPECT_GT(counters.merged_clusters, 0u);

    // Group list keeps its shape (emptied, not erased) and origins stay
    // aligned per group; merged reads moved, dropped reads vanished.
    ASSERT_EQ(groups.size(), 40u);
    std::size_t remaining = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        EXPECT_EQ(groups[g].size(), origins[g].size());
        remaining += groups[g].size();
    }
    EXPECT_LT(remaining, total_reads);
}

} // namespace
} // namespace dnastore
