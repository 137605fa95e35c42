/**
 * @file
 * Per-thread CPU-time accounting: the raw clock, its deltas over busy
 * and sleeping intervals, and the cpu_us field spans record into the
 * trace sink — including spans closed on worker threads.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/cpu_time.hh"
#include "obs/span.hh"

namespace
{

using dnastore::obs::Span;
using dnastore::obs::TraceEvent;
using dnastore::obs::TraceSink;
using dnastore::obs::installTraceSink;
using dnastore::obs::threadCpuClockAvailable;
using dnastore::obs::threadCpuNanos;

/** Burn CPU until the wall clock has advanced by @p ms. */
void
busyWaitMillis(int ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    volatile std::uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < deadline)
        sink = sink + 1;
}

/** Thread-CPU seconds the calling thread used since @p start_ns. */
double
cpuSecondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(threadCpuNanos() - start_ns) * 1e-9;
}

TEST(ThreadCpuTime, ClockIsMonotonic)
{
    if (!threadCpuClockAvailable())
        GTEST_SKIP() << "CLOCK_THREAD_CPUTIME_ID not available";
    const std::uint64_t a = threadCpuNanos();
    busyWaitMillis(2);
    const std::uint64_t b = threadCpuNanos();
    EXPECT_GE(b, a);
}

TEST(ThreadCpuTime, BusyWorkDoesNotExceedWall)
{
    if (!threadCpuClockAvailable())
        GTEST_SKIP() << "CLOCK_THREAD_CPUTIME_ID not available";
    const std::uint64_t cpu_start = threadCpuNanos();
    const auto wall_start = std::chrono::steady_clock::now();
    busyWaitMillis(20);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const double cpu = cpuSecondsSince(cpu_start);
    EXPECT_GT(cpu, 0.0);
    // A single thread cannot burn more CPU than wall time; allow 20%
    // slop for clock-granularity skew between the two clocks.
    EXPECT_LE(cpu, wall * 1.2 + 0.005);
}

TEST(ThreadCpuTime, SleepAccruesLittleCpu)
{
    if (!threadCpuClockAvailable())
        GTEST_SKIP() << "CLOCK_THREAD_CPUTIME_ID not available";
    const std::uint64_t cpu_start = threadCpuNanos();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Sleeping is the canonical cpu << wall case the attribution layer
    // exists to expose; generous bound to stay robust on loaded CI.
    EXPECT_LT(cpuSecondsSince(cpu_start), 0.040);
}

TEST(ThreadCpuTime, SpansRecordCpuMicros)
{
    TraceSink sink;
    installTraceSink(&sink);
    {
        Span span("test/busy");
        busyWaitMillis(10);
    }
    {
        Span span("test/sleepy");
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    installTraceSink(nullptr);

    const std::vector<TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    for (const TraceEvent &event : events) {
        // cpu_us is bounded by the span's wall duration (plus clock
        // granularity slop) on a single thread.
        EXPECT_LE(event.cpu_us, event.dur_us + event.dur_us / 5 + 2000)
            << event.name;
    }
    if (threadCpuClockAvailable()) {
        const TraceEvent &busy = events[0].ts_us <= events[1].ts_us
                                     ? events[0]
                                     : events[1];
        EXPECT_GT(busy.cpu_us, 0u);
    }
}

TEST(ThreadCpuTime, WorkerThreadSpansFlushWithCpuAttribution)
{
    TraceSink sink;
    installTraceSink(&sink);
    std::thread worker([] {
        Span span("test/worker");
        busyWaitMillis(5);
    });
    worker.join();
    installTraceSink(nullptr);

    const std::vector<TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "test/worker");
    // The worker's CPU time is its own: bounded by its span duration,
    // not by anything the main thread did.
    EXPECT_LE(events[0].cpu_us, events[0].dur_us + events[0].dur_us / 5 + 2000);
}

} // namespace
