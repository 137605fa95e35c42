/**
 * @file
 * Multi-object decode isolation: corrupting one object's retrieval must
 * not disturb the other objects sharing the pool, and the failure must
 * stay confined to that object's per-shard stage statuses.
 */

#include "archive/archive.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/random.hh"

using namespace dnastore;
using namespace dnastore::archive;

namespace
{

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

} // namespace

TEST(ArchiveIsolation, FaultsOnOneObjectLeaveTheOtherIntact)
{
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "archive_isolation")
            .string();
    std::filesystem::remove_all(dir);

    ArchiveParams params;
    params.codec.payload_nt = 120;
    params.codec.index_nt = 12;
    params.codec.rs_n = 60;
    params.codec.rs_k = 40;
    params.max_shard_bytes = 256;

    auto created = Archive::create(dir, params);
    ASSERT_TRUE(created.ok()) << created.error;
    Archive &tube = *created.archive;

    const auto victim = randomBytes(600, 101);
    const auto bystander = randomBytes(400, 202);
    const auto put_victim = tube.put("victim", victim);
    ASSERT_TRUE(put_victim.ok()) << put_victim.error;
    ASSERT_GE(put_victim.shards, 2u);
    ASSERT_TRUE(tube.put("bystander", bystander).ok());

    // Retrieval of "victim" under catastrophic injected faults: nearly
    // every read is garbage and most clusters are dropped.
    RetrievalConfig faulty;
    faulty.error_rate = 0.02;
    faulty.seed = 5;
    faulty.faults.garbage_read = 0.9;
    faulty.faults.read_truncation = 0.8;
    faulty.faults.cluster_drop = 0.8;

    const GetResult broken = tube.get("victim", faulty);
    EXPECT_FALSE(broken.ok());
    EXPECT_EQ(broken.status, ArchiveStatus::DecodeFailed);
    EXPECT_TRUE(broken.data.empty());
    ASSERT_EQ(broken.shards.size(), put_victim.shards);

    // The failure is visible per shard, in the stage taxonomy — not as
    // an exception and not as silent garbage.
    bool any_failed = false;
    for (const ShardOutcome &shard : broken.shards) {
        if (shard.ok)
            continue;
        any_failed = true;
        EXPECT_TRUE(shard.stages.decoding == StageStatus::Failed ||
                    shard.stages.decoding == StageStatus::Degraded ||
                    !shard.errors.empty())
            << "failed shard " << shard.pair_id
            << " carries no diagnostic";
    }
    EXPECT_TRUE(any_failed);

    // The bystander object, sharing the same tube, is untouched.
    RetrievalConfig clean;
    clean.error_rate = 0.02;
    clean.seed = 6;
    const GetResult other = tube.get("bystander", clean);
    ASSERT_TRUE(other.ok()) << other.error;
    EXPECT_EQ(other.data, bystander);

    // And the victim itself was never damaged at rest: retrieval
    // without faults round-trips byte-exactly.
    const GetResult healed = tube.get("victim", clean);
    ASSERT_TRUE(healed.ok()) << healed.error;
    EXPECT_EQ(healed.data, victim);

    std::filesystem::remove_all(dir);
}
