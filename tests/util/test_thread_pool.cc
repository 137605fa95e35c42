/**
 * @file
 * Tests for the worker thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/stage_tag.hh"
#include "util/thread_pool.hh"

namespace dnastore
{
namespace
{

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    auto f1 = pool.submit([] { return 21 * 2; });
    auto f2 = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(5, 5, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [](std::size_t i) {
                                      if (i == 57)
                                          throw std::logic_error("57");
                                  }),
                 std::logic_error);
}

TEST(ThreadPool, SingleChunkFailureKeepsOriginalExceptionType)
{
    // One failing chunk must rethrow the original exception unchanged,
    // not wrap it.
    ThreadPool pool(4);
    try {
        pool.parallelFor(0, 64, [](std::size_t i) {
            if (i == 3) // all failures inside one chunk
                throw std::out_of_range("only-me");
        });
        FAIL() << "expected an exception";
    } catch (const std::out_of_range &error) {
        EXPECT_STREQ(error.what(), "only-me");
    }
}

TEST(ThreadPool, AggregatesAllWorkerExceptions)
{
    // Regression: only the first worker exception used to surface; the
    // rest vanished.  With every chunk failing, the aggregate must
    // report each one.
    ThreadPool pool(2); // 64 items -> min(64, 2*4) = 8 chunks of 8
    try {
        // A chunk stops at its first throwing item, so each chunk
        // reports its own lower bound.
        pool.parallelFor(0, 64, [](std::size_t i) {
            throw std::runtime_error("chunk@" + std::to_string(i));
        });
        FAIL() << "expected a ParallelError";
    } catch (const ParallelError &error) {
        EXPECT_EQ(error.totalChunks(), 8u);
        ASSERT_EQ(error.messages().size(), 8u);
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_EQ(error.messages()[c],
                      "chunk@" + std::to_string(c * 8));
        }
        // The summary mentions the failure count and each message.
        const std::string what = error.what();
        EXPECT_NE(what.find("8 of 8"), std::string::npos);
        EXPECT_NE(what.find("chunk@56"), std::string::npos);
    }
}

TEST(ThreadPool, AggregatesMixedSuccessAndFailure)
{
    ThreadPool pool(2); // 8 chunks of 8: [8, 16) and [40, 48) fail
    std::atomic<std::size_t> completed{0};
    try {
        pool.parallelFor(0, 64, [&](std::size_t i) {
            if (i == 8 || i == 40)
                throw std::runtime_error("bad@" + std::to_string(i));
            completed.fetch_add(1);
        });
        FAIL() << "expected a ParallelError";
    } catch (const ParallelError &error) {
        EXPECT_EQ(error.messages().size(), 2u);
    }
    // Every healthy chunk still ran to completion.
    EXPECT_EQ(completed.load(), 48u);
}

TEST(ThreadPool, ParallelForCoversOffsetRangeOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(250);
    std::atomic<std::size_t> total{0};
    pool.parallelFor(10, 250, [&](std::size_t i) {
        EXPECT_GE(i, 10u);
        EXPECT_LT(i, 250u);
        hits[i].fetch_add(1);
        total.fetch_add(1);
    });
    EXPECT_EQ(total.load(), 240u);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), i < 10 ? 0 : 1) << i;
}

TEST(ThreadPool, PoolForRunsInlineUnlessTwoWorkersHelp)
{
    // min(threads, n) <= 1: no pool, the loop runs inline.
    EXPECT_EQ(poolFor(0, 100), nullptr);
    EXPECT_EQ(poolFor(1, 100), nullptr);
    EXPECT_EQ(poolFor(4, 1), nullptr);
    EXPECT_EQ(poolFor(4, 0), nullptr);
}

TEST(ThreadPool, PoolForSizesToTheWork)
{
    const auto capped = poolFor(4, 2);
    ASSERT_NE(capped, nullptr);
    EXPECT_EQ(capped->size(), 2u);
    const auto full = poolFor(4, 100);
    ASSERT_NE(full, nullptr);
    EXPECT_EQ(full->size(), 4u);
    const auto pair = poolFor(2, 2);
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->size(), 2u);

    // With a pool, forEachIndex still covers every index exactly once.
    std::vector<std::atomic<int>> hits(500);
    forEachIndex(full.get(), hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexWithoutPoolRunsInOrderOnCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool same_thread = true;
    forEachIndex(nullptr, 6, [&](std::size_t i) {
        order.push_back(i);
        same_thread = same_thread && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_TRUE(same_thread);

    // Inline, the first exception propagates as is and stops the loop.
    std::size_t ran = 0;
    EXPECT_THROW(forEachIndex(nullptr, 6,
                              [&](std::size_t i) {
                                  ++ran;
                                  if (i == 2)
                                      throw std::out_of_range("two");
                              }),
                 std::out_of_range);
    EXPECT_EQ(ran, 3u);
}

TEST(ThreadPool, SizeReportsWorkers)
{
    ThreadPool pool(5);
    EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, DefaultUsesAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    auto f = pool.submit([] { return 1; });
    EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, PublishesQueueWaitAndBusyAccounting)
{
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    {
        ThreadPool pool(2);
        pool.parallelFor(0, 64, [](std::size_t) {});
        // One task with measurable wall time so busy_micros must move.
        pool.submit([] {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }).get();
    } // destructor joins: busy/idle totals are final
    const obs::MetricsSnapshot delta =
        obs::metrics().snapshot().delta(before);

    const auto tasks =
        delta.counters.find("util.thread_pool.tasks_total");
    ASSERT_NE(tasks, delta.counters.end());
    EXPECT_GT(tasks->second, 0u);

    // Every dequeued task recorded exactly one enqueue->dequeue wait.
    const auto wait =
        delta.histograms.find("util.thread_pool.queue_wait_seconds");
    ASSERT_NE(wait, delta.histograms.end());
    EXPECT_EQ(wait->second.total_count, tasks->second);
    EXPECT_GE(wait->second.sum, 0.0);

    const auto cpu =
        delta.histograms.find("util.thread_pool.task_cpu_seconds");
    ASSERT_NE(cpu, delta.histograms.end());
    EXPECT_EQ(cpu->second.total_count, tasks->second);

    // The sleeping task makes >= ~10ms of busy wall time; idle is
    // whatever the other worker accumulated waiting for work.
    const auto busy =
        delta.counters.find("util.thread_pool.busy_micros_total");
    ASSERT_NE(busy, delta.counters.end());
    EXPECT_GE(busy->second, 5000u);

    const auto utilization =
        delta.gauges.find("util.thread_pool.utilization");
    ASSERT_NE(utilization, delta.gauges.end());
    EXPECT_GE(utilization->second.value, 0.0);
    EXPECT_LE(utilization->second.value, 1.0);
}

TEST(ThreadPool, PropagatesSubmitterStageTagIntoWorkers)
{
    ThreadPool pool(2);
    std::string observed;
    {
        obs::StageTagScope tag("test.pool_stage");
        observed = pool.submit([] {
                           return std::string(obs::currentStageTag());
                       })
                       .get();
    }
    EXPECT_EQ(observed, "test.pool_stage");
    // Outside any scope, submitted work runs untagged.
    EXPECT_EQ(pool.submit([] {
                      return std::string(obs::currentStageTag());
                  })
                  .get(),
              "");
}

#if defined(DNASTORE_ENABLE_DCHECKS)
TEST(ThreadPoolDeathTest, SubmitDuringShutdownTripsAssertNotDeadlock)
{
    // A worker task that keeps submitting while the pool is being
    // destroyed must hit the DNASTORE_ASSERT in submit() (a loud,
    // actionable abort), not hang the destructor's join forever.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            std::promise<void> running;
            auto started = running.get_future();
            ThreadPool pool(2);
            auto chatter = pool.submit([&pool, &running] {
                running.set_value();
                for (;;) {
                    pool.submit([] {});
                    std::this_thread::yield();
                }
            });
            started.wait();
            // Scope exit destroys the pool: stopping flips under the
            // mutex, and the chatter task's next submit asserts.
        },
        "stopping ThreadPool");
}
#endif

} // namespace
} // namespace dnastore
