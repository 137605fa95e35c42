/**
 * @file
 * Thread-safety stress tests.  These run in every build, but their real
 * purpose is a ThreadSanitizer-instrumented build
 * (-DDNASTORE_SANITIZE=thread), where they drive the three concurrent
 * surfaces of the toolkit hard enough for TSan to observe every
 * happens-before edge: parallelFor and ThreadPool::submit, the
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
    constexpr std::size_t kItems = 200000;
    constexpr int kRounds = 5;
    for (int round = 0; round < kRounds; ++round) {
        std::atomic<std::uint64_t> sum{0};
        parallelFor(4, kItems, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(),
                  static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
    }
}

TEST(TsanStress, ParallelForWritesDisjointSlots)
{
    std::vector<std::uint32_t> out(50000, 0);
    parallelFor(4, out.size(), [&](std::size_t i) {
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
    // Drives every parallel pass of a round: the signature table, the
    // pooled anchorKey lookups and the bucket merges that rewrite their
    // own clusters' member lists, over many rounds and two calls per
    // clusterer (the second continues the rng stream).
    Rng rng(4242);
    const auto reads = noisyReads(rng, 60, 8);
    const std::vector<Strand> half(reads.begin(),
                                   reads.begin() + reads.size() / 2);

    for (const SignatureKind kind :
         {SignatureKind::QGram, SignatureKind::WGram}) {
        RashtchianClustererConfig cfg;
        cfg.signature = kind;
        cfg.rounds = 24;
        cfg.num_threads = 1;
        RashtchianClusterer sequential(cfg);
        std::vector<Clustering> expected;
        std::vector<RashtchianClusterer::Stats> want;
        for (const auto *input : {&reads, &half}) {
            expected.push_back(sequential.cluster(*input));
            want.push_back(sequential.stats());
        }
        ASSERT_GT(want[0].merges, reads.size() / 2);

        for (const std::size_t threads : {1u, 2u, 4u}) {
            cfg.num_threads = threads;
            RashtchianClusterer parallel(cfg);
            for (std::size_t call = 0; call < expected.size(); ++call) {
                const Clustering got_clusters =
                    parallel.cluster(call == 0 ? reads : half);
                EXPECT_EQ(got_clusters.clusters, expected[call].clusters)
                    << threads << " threads, call " << call;
                const RashtchianClusterer::Stats &got = parallel.stats();
                EXPECT_EQ(got.signature_comparisons,
                          want[call].signature_comparisons);
                EXPECT_EQ(got.edit_distance_calls,
                          want[call].edit_distance_calls);
                EXPECT_EQ(got.merges, want[call].merges);
                EXPECT_EQ(got.rounds_run, want[call].rounds_run);
                EXPECT_EQ(got.theta_low, want[call].theta_low);
                EXPECT_EQ(got.theta_high, want[call].theta_high);
            }
        }
    }
}

TEST(TsanStress, ArchiveGetAndSaveShareOneThreadPool)
{
    // Concurrent const gets on archive A (racing on the lazy primer
    // library design now serialised by the annotated Mutex) while
    // archive B puts — and therefore saves — on the same shared pool.
    // Two of A's readers share one faulted RetrievalConfig: every shard
    // run builds its own injector from the plan, so sharing the config
    // shares no mutable state.  Mutating operations stay externally
    // serialised per archive: all of B's puts run inside one task, in
    // order.
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

    archive::RetrievalConfig faulted;
    faulted.num_threads = 2;
    faulted.faults.read_truncation = 0.02;
    faulted.faults.cluster_drop = 0.02;

    {
        ThreadPool pool(4);
        std::vector<std::future<bool>> outcomes;
        for (int reader = 0; reader < 2; ++reader) {
            outcomes.push_back(pool.submit(
                [&a, &payload] { return a.get("obj").data == payload; }));
        }
        std::vector<std::future<std::vector<std::uint8_t>>> faulted_gets;
        for (int reader = 0; reader < 2; ++reader) {
            faulted_gets.push_back(pool.submit(
                [&a, &faulted] { return a.get("obj", faulted).data; }));
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
        const std::vector<std::uint8_t> first = faulted_gets[0].get();
        EXPECT_EQ(first, faulted_gets[1].get());
        EXPECT_EQ(first, payload);
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
