/**
 * @file
 * Thread-safety stress tests.  These run in every build, but their real
 * purpose is a ThreadSanitizer-instrumented build
 * (-DDNASTORE_SANITIZE=thread), where they drive the three concurrent
 * surfaces of the toolkit hard enough for TSan to observe every
 * happens-before edge: ThreadPool::parallelFor/submit, the
 * Rashtchian clusterer's parallel signature + bucket-merge path, and
 * multiple Pipeline::run instances sharing const modules.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hh"
#include "clustering/clusterer.hh"
#include "clustering/greedy_clusterer.hh"
#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace dnastore
{
namespace
{

TEST(TsanStress, ParallelForAccumulates)
{
    ThreadPool pool(4);
    constexpr std::size_t kItems = 200000;
    constexpr int kRounds = 5;
    for (int round = 0; round < kRounds; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(0, kItems, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(),
                  static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
    }
}

TEST(TsanStress, ParallelForWritesDisjointSlots)
{
    ThreadPool pool(4);
    std::vector<std::uint32_t> out(50000, 0);
    pool.parallelFor(0, out.size(), [&](std::size_t i) {
        out[i] = static_cast<std::uint32_t>(i * 2654435761u);
    });
    for (std::size_t i = 0; i < out.size(); i += 4999)
        EXPECT_EQ(out[i], static_cast<std::uint32_t>(i * 2654435761u));
}

TEST(TsanStress, ConcurrentExternalSubmitters)
{
    ThreadPool pool(3);
    constexpr int kSubmitters = 4;
    constexpr int kTasksEach = 500;
    std::atomic<int> executed{0};
    {
        std::vector<std::thread> submitters;
        std::vector<std::vector<std::future<void>>> futures(kSubmitters);
        submitters.reserve(kSubmitters);
        for (int t = 0; t < kSubmitters; ++t) {
            submitters.emplace_back([&pool, &futures, &executed, t] {
                futures[static_cast<std::size_t>(t)].reserve(kTasksEach);
                for (int i = 0; i < kTasksEach; ++i) {
                    futures[static_cast<std::size_t>(t)].push_back(
                        pool.submit([&executed] {
                            executed.fetch_add(1,
                                               std::memory_order_relaxed);
                        }));
                }
            });
        }
        for (auto &submitter : submitters)
            submitter.join();
        for (auto &list : futures)
            for (auto &future : list)
                future.get();
    }
    EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

std::vector<Strand>
noisyReads(Rng &rng, std::size_t num_strands, std::size_t copies)
{
    std::vector<Strand> reads;
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    std::vector<Strand> originals;
    for (std::size_t s = 0; s < num_strands; ++s)
        originals.push_back(strand::random(rng, 120));
    for (std::size_t s = 0; s < num_strands; ++s)
        for (std::size_t c = 0; c < copies; ++c)
            reads.push_back(channel.transmit(originals[s], rng));
    return reads;
}

TEST(TsanStress, RashtchianParallelSignaturePathMatchesSequential)
{
    Rng rng(4242);
    const auto reads = noisyReads(rng, 60, 8);

    RashtchianClustererConfig sequential_cfg;
    sequential_cfg.rounds = 12;
    sequential_cfg.num_threads = 1;
    RashtchianClusterer sequential(sequential_cfg);
    const Clustering expected = sequential.cluster(reads);

    RashtchianClustererConfig parallel_cfg = sequential_cfg;
    parallel_cfg.num_threads = 4;
    RashtchianClusterer parallel(parallel_cfg);
    const Clustering actual = parallel.cluster(reads);

    // Merge order may differ across schedules, but the merged pairs are
    // identical, so the final partition must be too.
    EXPECT_EQ(actual.numClusters(), expected.numClusters());
}

TEST(TsanStress, ArchiveGetAndSaveShareOneThreadPool)
{
    // Concurrent const gets on archive A (racing on the lazy primer
    // library design now serialised by the annotated Mutex) while
    // archive B puts — and therefore saves — on the same shared pool.
    // Mutating operations stay externally serialised per archive: all
    // of B's puts run inside one task, in order.
    namespace fs = std::filesystem;
    const fs::path base = fs::path(::testing::TempDir()) / "tsan_archive";
    fs::remove_all(base);

    archive::ArchiveParams params;
    params.codec.payload_nt = 120;
    params.codec.index_nt = 12;
    params.codec.rs_n = 60;
    params.codec.rs_k = 40;
    params.max_shard_bytes = 256;

    Rng rng(90125);
    std::vector<std::uint8_t> payload(300);
    for (auto &b : payload)
        b = static_cast<std::uint8_t>(rng.below(256));

    auto created_a = archive::Archive::create((base / "a").string(), params);
    ASSERT_TRUE(created_a.ok()) << created_a.error;
    archive::Archive &a = *created_a.archive;
    ASSERT_TRUE(a.put("obj", payload).ok());

    auto created_b = archive::Archive::create((base / "b").string(), params);
    ASSERT_TRUE(created_b.ok()) << created_b.error;
    archive::Archive &b = *created_b.archive;

    {
        ThreadPool pool(4);
        std::vector<std::future<bool>> outcomes;
        for (int reader = 0; reader < 4; ++reader) {
            outcomes.push_back(pool.submit(
                [&a, &payload] { return a.get("obj").data == payload; }));
        }
        outcomes.push_back(pool.submit([&b, &payload] {
            for (int i = 0; i < 3; ++i) {
                if (!b.put("obj" + std::to_string(i), payload).ok())
                    return false;
            }
            return true;
        }));
        for (auto &outcome : outcomes)
            EXPECT_TRUE(outcome.get());
    }
    EXPECT_EQ(b.objects().size(), 3u);
    fs::remove_all(base);
}

TEST(TsanStress, ConcurrentPipelineRunInstances)
{
    MatrixCodecConfig codec_cfg;
    codec_cfg.payload_nt = 80;
    codec_cfg.index_nt = 10;
    codec_cfg.rs_n = 40;
    codec_cfg.rs_k = 28;

    const MatrixEncoder encoder(codec_cfg);
    const MatrixDecoder decoder(codec_cfg);
    const IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.01));
    const NwConsensusReconstructor reconstructor;

    constexpr int kPipelines = 4;
    std::vector<int> ok(kPipelines, 0);
    std::vector<std::thread> runners;
    runners.reserve(kPipelines);
    for (int t = 0; t < kPipelines; ++t) {
        runners.emplace_back([&, t] {
            // Clusterers carry per-run statistics, so each thread owns
            // one; every other module is shared and const.
            GreedyOnlineClusterer clusterer{GreedyClustererConfig{}};
            PipelineModules mods;
            mods.encoder = &encoder;
            mods.decoder = &decoder;
            mods.channel = &channel;
            mods.clusterer = &clusterer;
            mods.reconstructor = &reconstructor;

            PipelineConfig cfg;
            cfg.coverage = CoverageModel(8.0);
            cfg.num_threads = 2; // nested pool inside each run
            cfg.seed = 0xbeef00ULL + static_cast<std::uint64_t>(t);

            Rng rng(77 + static_cast<std::uint64_t>(t));
            std::vector<std::uint8_t> data(400);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.below(256));

            Pipeline pipeline(mods, cfg);
            const PipelineResult result = pipeline.run(data);
            ok[static_cast<std::size_t>(t)] = result.report.ok ? 1 : 0;
        });
    }
    for (auto &runner : runners)
        runner.join();
    for (int t = 0; t < kPipelines; ++t)
        EXPECT_EQ(ok[static_cast<std::size_t>(t)], 1) << "pipeline " << t;
}

} // namespace
} // namespace dnastore
