/**
 * @file
 * Scheduler unit tests (src/server/scheduler.hh) against the gated
 * FakeBackend: get-coalescing, pool batching, typed admission
 * rejections, put/read exclusion and drain semantics — the properties
 * docs/SERVER.md promises.
 */

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/scheduler.hh"
#include "server/fake_backend.hh"
#include "util/thread_pool.hh"

#if defined(__SANITIZE_THREAD__)
#define DNASTORE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DNASTORE_TEST_TSAN 1
#endif
#endif

namespace dnastore::server
{
namespace
{

using testing::FakeBackend;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** Collects one callback's outcome and lets the test wait for it. */
struct GetProbe
{
    std::atomic<bool> called{false};
    ServerStatus status = ServerStatus::Internal;
    std::vector<std::uint8_t> data;

    Scheduler::GetCallback
    callback()
    {
        return [this](const FetchResult &result) {
            status = result.status;
            data = result.data;
            called.store(true, std::memory_order_release);
        };
    }
};

TEST(Scheduler, DeliversGetPutLsStat)
{
    FakeBackend backend;
    backend.add("a", bytes("alpha"));

    SchedulerConfig config;
    config.num_threads = 2;
    Scheduler sched(backend, config);

    GetProbe get;
    ASSERT_EQ(sched.submitGet(1, "a", get.callback()), ServerStatus::Ok);

    std::atomic<bool> put_ok{false};
    ASSERT_EQ(sched.submitPut(1, "b", bytes("beta"),
                              [&](const StoreResult &r) {
                                  put_ok.store(r.ok());
                              }),
              ServerStatus::Ok);

    std::atomic<bool> ls_ok{false};
    ASSERT_EQ(sched.submitLs(1,
                             [&](const MetaResult &r) {
                                 ls_ok.store(r.ok());
                             }),
              ServerStatus::Ok);

    std::atomic<bool> stat_found{false};
    ASSERT_EQ(sched.submitStat(1, "a",
                               [&](const MetaResult &r) {
                                   stat_found.store(r.ok());
                               }),
              ServerStatus::Ok);

    sched.drainWait();
    EXPECT_TRUE(get.called.load());
    EXPECT_EQ(get.status, ServerStatus::Ok);
    EXPECT_EQ(get.data, bytes("alpha"));
    EXPECT_TRUE(put_ok.load());
    EXPECT_TRUE(ls_ok.load());
    EXPECT_TRUE(stat_found.load());
}

TEST(Scheduler, PropagatesNotFound)
{
    FakeBackend backend;
    SchedulerConfig config;
    config.num_threads = 1;
    Scheduler sched(backend, config);

    GetProbe get;
    ASSERT_EQ(sched.submitGet(1, "missing", get.callback()),
              ServerStatus::Ok);
    sched.drainWait();
    EXPECT_TRUE(get.called.load());
    EXPECT_EQ(get.status, ServerStatus::NotFound);
}

TEST(Scheduler, CoalescesConcurrentGetsIntoOneFetch)
{
    FakeBackend backend;
    backend.add("hot", bytes("popular"));
    backend.fetch_gate.close(); // Hold the fetch open.

    SchedulerConfig config;
    config.num_threads = 2;
    Scheduler sched(backend, config);

    // Four gets for the same object while no fetch can complete: one
    // group, one backend fetch, three coalesced riders.
    std::vector<GetProbe> probes(4);
    for (GetProbe &probe : probes)
        ASSERT_EQ(sched.submitGet(1, "hot", probe.callback()),
                  ServerStatus::Ok);

    backend.fetch_gate.open();
    sched.drainWait();

    for (GetProbe &probe : probes) {
        EXPECT_TRUE(probe.called.load());
        EXPECT_EQ(probe.status, ServerStatus::Ok);
        EXPECT_EQ(probe.data, bytes("popular"));
    }
    EXPECT_EQ(backend.fetches(), 1u);
    const SchedulerCounters counters = sched.counters();
    EXPECT_EQ(counters.requests, 4u);
    EXPECT_EQ(counters.coalesced_gets, 3u);
    EXPECT_EQ(counters.batches, 1u);
}

TEST(Scheduler, BatchesDistinctObjectsIntoOneBackendCall)
{
    FakeBackend backend;
    for (const char *name : {"a", "b", "c", "d", "e"})
        backend.add(name, bytes(name));
    backend.fetch_gate.close();

    SchedulerConfig config;
    config.num_threads = 2;
    config.batch_max = 4;
    config.max_concurrent_batches = 1; // Queue piles behind one slot.
    Scheduler sched(backend, config);

    // "a" dispatches alone and blocks at the gate; the other four queue
    // up and must leave as ONE fetchMany batch (batch_max = 4).
    std::vector<GetProbe> probes(5);
    const char *names[] = {"a", "b", "c", "d", "e"};
    for (std::size_t i = 0; i < 5; ++i)
        ASSERT_EQ(sched.submitGet(1, names[i], probes[i].callback()),
                  ServerStatus::Ok);

    backend.fetch_gate.open();
    sched.drainWait();

    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_TRUE(probes[i].called.load());
        EXPECT_EQ(probes[i].data, bytes(names[i]));
    }
    const std::vector<std::size_t> sizes = backend.batchSizes();
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(sizes[0], 1u);
    EXPECT_EQ(sizes[1], 4u);
    const SchedulerCounters counters = sched.counters();
    EXPECT_EQ(counters.batches, 2u);
    EXPECT_EQ(counters.batched_gets, 5u);
}

TEST(Scheduler, RejectsOverloadInlineWithoutCallback)
{
    FakeBackend backend;
    backend.add("a", bytes("a"));
    backend.add("b", bytes("b"));
    backend.fetch_gate.close();

    SchedulerConfig config;
    config.num_threads = 2;
    config.max_inflight = 2;
    config.batch_max = 1;
    Scheduler sched(backend, config);

    GetProbe first;
    GetProbe second;
    ASSERT_EQ(sched.submitGet(1, "a", first.callback()),
              ServerStatus::Ok);
    ASSERT_EQ(sched.submitGet(2, "b", second.callback()),
              ServerStatus::Ok);

    // Third request over the global limit: rejected NOW, typed, and the
    // callback must never fire.
    GetProbe rejected;
    EXPECT_EQ(sched.submitGet(3, "a", rejected.callback()),
              ServerStatus::Overloaded);

    backend.fetch_gate.open();
    sched.drainWait();
    EXPECT_TRUE(first.called.load());
    EXPECT_TRUE(second.called.load());
    EXPECT_FALSE(rejected.called.load());
    EXPECT_EQ(sched.counters().rejected_overload, 1u);
}

TEST(Scheduler, EnforcesPerClientQuota)
{
    FakeBackend backend;
    backend.add("a", bytes("a"));
    backend.fetch_gate.close();

    SchedulerConfig config;
    config.num_threads = 2;
    config.per_client_inflight = 1;
    Scheduler sched(backend, config);

    GetProbe first;
    ASSERT_EQ(sched.submitGet(7, "a", first.callback()),
              ServerStatus::Ok);

    // Same client beyond its quota: typed rejection.  Another client
    // is still welcome.
    GetProbe over;
    EXPECT_EQ(sched.submitGet(7, "a", over.callback()),
              ServerStatus::QuotaExceeded);
    GetProbe other;
    EXPECT_EQ(sched.submitGet(8, "a", other.callback()),
              ServerStatus::Ok);

    backend.fetch_gate.open();
    sched.drainWait();
    EXPECT_TRUE(first.called.load());
    EXPECT_FALSE(over.called.load());
    EXPECT_TRUE(other.called.load());
    EXPECT_EQ(sched.counters().rejected_quota, 1u);
}

TEST(Scheduler, DrainRejectsNewWorkAndFinishesAdmitted)
{
    FakeBackend backend;
    backend.add("a", bytes("a"));
    backend.fetch_gate.close();

    SchedulerConfig config;
    config.num_threads = 2;
    Scheduler sched(backend, config);

    GetProbe admitted;
    ASSERT_EQ(sched.submitGet(1, "a", admitted.callback()),
              ServerStatus::Ok);

    sched.beginDrain();
    GetProbe late;
    EXPECT_EQ(sched.submitGet(1, "a", late.callback()),
              ServerStatus::ShuttingDown);

    backend.fetch_gate.open();
    sched.drainWait();
    // Drain completed = every admitted callback was delivered.
    EXPECT_TRUE(admitted.called.load());
    EXPECT_FALSE(late.called.load());
    EXPECT_TRUE(sched.idle());
    EXPECT_EQ(sched.counters().rejected_draining, 1u);
}

TEST(Scheduler, PutExcludesReadsAndDoesNotStarve)
{
    FakeBackend backend;
    backend.add("a", bytes("a"));
    backend.add("b", bytes("b"));
    backend.fetch_gate.close();

    SchedulerConfig config;
    config.num_threads = 2;
    config.batch_max = 1;
    Scheduler sched(backend, config);

    // Read "a" is in flight; the put must wait for it, and read "b"
    // (submitted after the put) must wait for the put — writer priority
    // keeps a stream of reads from starving the put forever.
    GetProbe read_a;
    ASSERT_EQ(sched.submitGet(1, "a", read_a.callback()),
              ServerStatus::Ok);
    std::atomic<bool> put_done{false};
    ASSERT_EQ(sched.submitPut(1, "p", bytes("payload"),
                              [&](const StoreResult &r) {
                                  put_done.store(r.ok());
                              }),
              ServerStatus::Ok);
    GetProbe read_b;
    ASSERT_EQ(sched.submitGet(1, "b", read_b.callback()),
              ServerStatus::Ok);

    backend.fetch_gate.open();
    sched.drainWait();

    EXPECT_TRUE(read_a.called.load());
    EXPECT_TRUE(put_done.load());
    EXPECT_TRUE(read_b.called.load());
    const std::vector<std::string> ops = backend.ops();
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0], "fetch:a");
    EXPECT_EQ(ops[1], "store:p");
    EXPECT_EQ(ops[2], "fetch:b");
}

TEST(Scheduler, DestructorDrainsOutstandingWork)
{
    FakeBackend backend;
    backend.add("a", bytes("a"));

    std::atomic<int> delivered{0};
    {
        SchedulerConfig config;
        config.num_threads = 2;
        Scheduler sched(backend, config);
        for (int i = 0; i < 8; ++i)
            ASSERT_EQ(sched.submitGet(1, "a",
                                      [&](const FetchResult &) {
                                          delivered.fetch_add(1);
                                      }),
                      ServerStatus::Ok);
        // No explicit drain: the destructor must deliver everything.
    }
    EXPECT_EQ(delivered.load(), 8);
}

TEST(Scheduler, DestroyedRightAfterLastCallback)
{
    // Each scheduler dies as soon as its last callback has run, while
    // its pool tasks may still be returning: by then they must have
    // dropped every callback and touch nothing of the scheduler's.  The
    // callbacks share one State, destroyed by whichever thread drops the
    // last of them, so a late drop races with the check below (TSan) or
    // writes to freed memory (ASan), as would a late touch of the
    // heap-allocated scheduler.
    struct Outcome
    {
        std::vector<std::uint8_t> got;
        bool stored = false;
        std::string listing;
        bool released = false;
    };
    struct State
    {
        explicit State(Outcome &out) : outcome(out) {}
        ~State() { outcome.released = true; }
        Outcome &outcome;
    };
    for (int i = 0; i < 300; ++i) {
        FakeBackend backend;
        backend.add("a", bytes("alpha"));
        auto outcome = std::make_unique<Outcome>();
        auto sched = std::make_unique<Scheduler>(backend, SchedulerConfig{});
        {
            auto state = std::make_shared<State>(*outcome);
            ASSERT_EQ(sched->submitGet(1, "a",
                                       [state](const FetchResult &r) {
                                           state->outcome.got = r.data;
                                       }),
                      ServerStatus::Ok);
            ASSERT_EQ(sched->submitPut(2, "p", bytes("payload"),
                                       [state](const StoreResult &r) {
                                           state->outcome.stored = r.ok();
                                       }),
                      ServerStatus::Ok);
            ASSERT_EQ(sched->submitLs(3,
                                      [state](const MetaResult &r) {
                                          state->outcome.listing = r.json;
                                      }),
                      ServerStatus::Ok);
        }
        sched.reset(); // No drainWait: the destructor drains.
        EXPECT_TRUE(outcome->released) << "iteration " << i;
        EXPECT_EQ(outcome->got, bytes("alpha")) << "iteration " << i;
        EXPECT_TRUE(outcome->stored) << "iteration " << i;
        EXPECT_FALSE(outcome->listing.empty()) << "iteration " << i;
    }
}

TEST(Scheduler, NumThreadsCapsRunningTasks)
{
    FakeBackend backend;
    backend.add("a", bytes("a"));
    backend.add("b", bytes("b"));
    backend.fetch_gate.close();

    SchedulerConfig config;
    config.num_threads = 1;
    config.max_concurrent_batches = 2;
    Scheduler sched(backend, config);

    GetProbe get_a;
    ASSERT_EQ(sched.submitGet(1, "a", get_a.callback()), ServerStatus::Ok);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (backend.fetches() == 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(backend.fetches(), 1u);

    // A batch slot is free, but the one task slot is taken: neither the
    // get nor the listing may reach the backend while "a" is held.
    GetProbe get_b;
    ASSERT_EQ(sched.submitGet(1, "b", get_b.callback()), ServerStatus::Ok);
    std::atomic<bool> ls_ok{false};
    ASSERT_EQ(sched.submitLs(1,
                             [&](const MetaResult &r) {
                                 ls_ok.store(r.ok());
                             }),
              ServerStatus::Ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(backend.ops(), std::vector<std::string>{"fetch:a"});

    backend.fetch_gate.open();
    sched.drainWait();
    EXPECT_TRUE(get_a.called.load());
    EXPECT_TRUE(get_b.called.load());
    EXPECT_TRUE(ls_ok.load());
    EXPECT_EQ(backend.ops().size(), 3u);
    EXPECT_EQ(backend.peakCalls(), 1u);
}

TEST(Scheduler, SharesTheParallelForPool)
{
#if defined(DNASTORE_TEST_TSAN)
    GTEST_SKIP() << "ThreadSanitizer runs a thread of its own and does "
                    "not support threads after a multi-threaded fork";
#endif
    const auto threads = [] {
        std::size_t count = 0;
        DIR *dir = ::opendir("/proc/self/task");
        if (dir == nullptr)
            return count;
        while (const dirent *entry = ::readdir(dir))
            count += entry->d_name[0] != '.';
        ::closedir(dir);
        return count;
    };
    if (threads() == 0)
        GTEST_SKIP() << "no /proc/self/task to count threads in";

    // In a forked child (one thread, no pool yet), a scheduler that
    // served a get and a width-0 loop leave the caller plus one pool.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(30);
        FakeBackend backend;
        backend.add("a", bytes("a"));
        Scheduler sched(backend, SchedulerConfig{});
        GetProbe get;
        if (sched.submitGet(1, "a", get.callback()) != ServerStatus::Ok)
            ::_exit(2);
        sched.drainWait();
        std::atomic<std::size_t> ran{0};
        parallelFor(0, 64, [&](std::size_t) { ran.fetch_add(1); });
        const bool ok = get.called.load() && ran.load() == 64 &&
                        threads() == 1 + sharedPool().size();
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child died on a signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "the scheduler runs a pool besides the shared one";
}

} // namespace
} // namespace dnastore::server
