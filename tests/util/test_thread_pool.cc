/**
 * @file
 * Tests for the worker thread pool and parallelFor.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "util/thread_pool.hh"

#if defined(__SANITIZE_THREAD__)
#define DNASTORE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DNASTORE_TEST_TSAN 1
#endif
#endif

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
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(4, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    bool touched = false;
    parallelFor(2, 0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    EXPECT_THROW(parallelFor(2, 100,
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
    try {
        parallelFor(4, 64, [](std::size_t i) {
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
    // report each one.  64 items at width 2 -> min(64, 2*4) = 8 chunks
    // of 8.
    try {
        // A chunk stops at its first throwing item, so each chunk
        // reports its own lower bound.
        parallelFor(2, 64, [](std::size_t i) {
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
    // 8 chunks of 8: [8, 16) and [40, 48) fail.
    std::atomic<std::size_t> completed{0};
    try {
        parallelFor(2, 64, [&](std::size_t i) {
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
    // [10, 250) as [0, 240) shifted by the body; 240 items at width 3
    // make 12 chunks of 20.
    std::vector<std::atomic<int>> hits(250);
    std::atomic<std::size_t> total{0};
    parallelFor(3, 240, [&](std::size_t k) {
        const std::size_t i = 10 + k;
        EXPECT_LT(i, 250u);
        hits[i].fetch_add(1);
        total.fetch_add(1);
    });
    EXPECT_EQ(total.load(), 240u);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), i < 10 ? 0 : 1) << i;
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
        std::vector<std::future<void>> quick;
        for (int i = 0; i < 8; ++i)
            quick.push_back(pool.submit([] {}));
        for (auto &f : quick)
            f.get();
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

// min(width, n) <= 1: no helper is woken, the loop runs inline on the
// caller in index order.
TEST(ThreadPool, PoolForRunsInlineUnlessTwoWorkersHelp)
{
    const std::thread::id caller = std::this_thread::get_id();
    const std::vector<std::pair<std::size_t, std::size_t>> cases{
        {0, 1}, {1, 100}, {4, 1}, {4, 0}};
    for (const auto &[width, n] : cases) {
        std::vector<std::size_t> order;
        bool same_thread = true;
        parallelFor(width, n, [&](std::size_t i) {
            order.push_back(i);
            same_thread =
                same_thread && std::this_thread::get_id() == caller;
        });
        std::vector<std::size_t> expected(n);
        std::iota(expected.begin(), expected.end(), 0);
        EXPECT_EQ(order, expected) << "width " << width << " n " << n;
        EXPECT_TRUE(same_thread) << "width " << width << " n " << n;
    }
}

TEST(ThreadPool, ForEachIndexWithoutPoolRunsInOrderOnCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool same_thread = true;
    parallelFor(1, 6, [&](std::size_t i) {
        order.push_back(i);
        same_thread = same_thread && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_TRUE(same_thread);

    // Inline, the first exception propagates as is and stops the loop.
    std::size_t ran = 0;
    EXPECT_THROW(parallelFor(1, 6,
                             [&](std::size_t i) {
                                 ++ran;
                                 if (i == 2)
                                     throw std::out_of_range("two");
                             }),
                 std::out_of_range);
    EXPECT_EQ(ran, 3u);
}

TEST(ParallelFor, ConcurrencyNeverExceedsWidth)
{
    for (const std::size_t width : {2u, 3u}) {
        std::atomic<int> active{0};
        std::atomic<int> peak{0};
        std::vector<std::atomic<int>> hits(64);
        parallelFor(width, hits.size(), [&](std::size_t i) {
            const int now = active.fetch_add(1) + 1;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            hits[i].fetch_add(1);
            active.fetch_sub(1);
        });
        EXPECT_LE(peak.load(), static_cast<int>(width));
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, NestedLoopsInsideAWidthZeroLoopComplete)
{
    // Three levels at width 0: the outer loop's helpers and the middle
    // loops' helpers together can hold every pool worker inside a body
    // that waits on its own loop.  Each of those callers runs its own
    // chunks, so nothing waits on a helper that cannot start.
    const std::size_t outer =
        4 * std::max<std::size_t>(1, std::thread::hardware_concurrency());
    constexpr std::size_t kMiddle = 8;
    constexpr std::size_t kInner = 50;
    std::vector<std::atomic<std::size_t>> sums(outer);
    parallelFor(0, outer, [&](std::size_t i) {
        parallelFor(0, kMiddle, [&](std::size_t) {
            parallelFor(0, kInner,
                        [&](std::size_t j) { sums[i].fetch_add(j); });
        });
    });
    for (std::size_t i = 0; i < outer; ++i)
        EXPECT_EQ(sums[i].load(), kMiddle * kInner * (kInner - 1) / 2) << i;
}

TEST(ParallelFor, ReusesOneProcessWidePool)
{
    // 50 loops at width 4 run on the caller's thread plus the shared
    // pool's workers; a pool built per call would bring 3 new threads
    // each time.
    static thread_local bool ran_here = false;
    std::atomic<std::size_t> threads{0};
    for (int call = 0; call < 50; ++call) {
        parallelFor(4, 64, [&](std::size_t) {
            if (!ran_here) {
                ran_here = true;
                threads.fetch_add(1);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
    }
    const std::size_t workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    EXPECT_LE(threads.load(), workers + 1);
}

TEST(ParallelFor, LateHelpersLeaveFnUntouched)
{
    // Tiny loops: the caller usually claims every chunk before its
    // helpers start, and those helpers must then return without
    // calling fn.
    constexpr std::size_t kCalls = 200;
    const auto tasks = [] {
        return obs::metrics().counter("util.thread_pool.tasks_total").value();
    };
    const std::uint64_t before = tasks();
    std::vector<std::atomic<bool>> returned(kCalls);
    std::atomic<std::size_t> late{0};
    for (std::size_t c = 0; c < kCalls; ++c) {
        parallelFor(4, 4, [&, c](std::size_t) {
            if (returned[c].load())
                late.fetch_add(1);
        });
        returned[c].store(true);
    }
    // Wait until a worker has dequeued each call's 3 helpers, then give
    // the last ones time to finish.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (tasks() - before < 3 * kCalls &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(tasks() - before, 3 * kCalls);
    EXPECT_EQ(late.load(), 0u);
}

TEST(ParallelFor, ForkedChildStartsItsOwnPool)
{
#if defined(DNASTORE_TEST_TSAN)
    GTEST_SKIP() << "ThreadSanitizer does not support starting threads "
                    "after a multi-threaded fork";
#endif
    // The parent starts the shared pool first.
    std::atomic<std::size_t> warm{0};
    parallelFor(2, 64, [&](std::size_t) { warm.fetch_add(1); });
    ASSERT_EQ(warm.load(), 64u);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(30); // a hang fails the test instead of stalling it
        // Each of the two chunks waits until a second thread has
        // entered the loop: only a live pool in the child can supply
        // it.  Give up after 10 s.
        std::mutex mutex;
        std::set<std::thread::id> seen;
        bool ok = true;
        parallelFor(2, 2, [&](std::size_t) {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                seen.insert(std::this_thread::get_id());
            }
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            for (;;) {
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    if (seen.size() >= 2)
                        return;
                    if (std::chrono::steady_clock::now() > give_up) {
                        ok = false;
                        return;
                    }
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child died on a signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "the child's loop never ran on a second thread";
}

TEST(ParallelFor, InlineLoopStartsNoPool)
{
#if defined(DNASTORE_TEST_TSAN)
    GTEST_SKIP() << "ThreadSanitizer runs a thread of its own and does "
                    "not support threads after a multi-threaded fork";
#endif
    DIR *tasks = ::opendir("/proc/self/task");
    if (tasks == nullptr)
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    ::closedir(tasks);

    // A forked child has one thread and no pool of its own yet; a
    // width-0 loop over one item must run inline without starting one.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(30);
        std::size_t ran = 0;
        parallelFor(0, 1, [&](std::size_t) { ++ran; });
        std::size_t threads = 0;
        DIR *dir = ::opendir("/proc/self/task");
        while (const dirent *entry = ::readdir(dir))
            threads += entry->d_name[0] != '.';
        ::closedir(dir);
        ::_exit(ran == 1 && threads == 1 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child died on a signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "an inline loop started the shared pool";
}

} // namespace
} // namespace dnastore
