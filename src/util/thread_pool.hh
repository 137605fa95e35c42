/**
 * @file
 * A small fixed-size thread pool, and parallelFor: the one data-parallel
 * loop of the toolkit, run on the caller plus helpers from a single
 * pool per process.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hh"
#include "util/assert.hh"
#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace dnastore
{

/**
 * Thrown by parallelFor when more than one chunk fails:
 * every worker exception is collected so no failure vanishes silently.
 * (A single failing chunk rethrows its original exception unchanged.)
 */
class ParallelError : public std::runtime_error
{
  public:
    /**
     * @param messages what() of every failed chunk, in chunk order.
     * @param total_chunks number of chunks the loop was split into.
     */
    ParallelError(std::vector<std::string> messages,
                  std::size_t total_chunks);

    /** One entry per failed chunk. */
    const std::vector<std::string> &messages() const { return messages_; }
    /** Number of chunks the loop ran. */
    std::size_t totalChunks() const { return total_chunks_; }

  private:
    std::vector<std::string> messages_;
    std::size_t total_chunks_;
};

/**
 * Fixed-size worker pool.  Construction spawns the workers; destruction
 * drains outstanding tasks and joins them.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 means hardware_concurrency()
     *                    (at least 1).
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Number of worker threads. */
    std::size_t size() const { return workers.size(); }

    /**
     * Enqueue a callable; returns a future for its result.  Submitting
     * while the pool is shutting down is a programmer error (the task
     * could never run): it trips DNASTORE_ASSERT in dev builds and
     * throws in builds with invariant checks compiled out.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using Result = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        {
            MutexLock lock(mutex);
            DNASTORE_ASSERT(!stopping,
                            "submit on a stopping ThreadPool: the task "
                            "would never run");
            if (stopping)
                throw std::runtime_error(
                    "submit on a stopping ThreadPool");
            tasks.emplace(
                PendingTask{[task] { (*task)(); }, obs::traceNowMicros()});
        }
        available.notifyOne();
        return future;
    }

  private:
    /**
     * A queued task plus when it was enqueued (for the queue-wait
     * histogram).
     */
    struct PendingTask
    {
        std::function<void()> fn;
        std::uint64_t enqueue_us = 0;
    };

    void workerLoop();

    std::vector<std::thread> workers;
    Mutex mutex{"util.thread_pool"};
    std::queue<PendingTask> tasks DNASTORE_GUARDED_BY(mutex);
    CondVar available;
    bool stopping DNASTORE_GUARDED_BY(mutex) = false;
};

/**
 * The process-wide pool: hardware_concurrency() workers, started on
 * first use and never destroyed.  parallelFor's helpers and the server
 * scheduler's tasks run here; a forked child starts its own.
 */
ThreadPool &sharedPool();

/**
 * Run fn(i) for every i in [0, n) on at most @p width threads; width 0
 * means sharedPool().size().
 *
 * When min(width, n) <= 1 the loop runs on the caller in index order,
 * the first exception propagates unchanged, and no pool is touched.
 * Otherwise [0, n) splits into min(n, 4 * width) contiguous chunks,
 * which the caller and min(width, n) - 1 helper tasks on the shared
 * pool claim in order; the caller returns once every chunk has
 * finished.  A chunk stops at its first throwing iteration.  If exactly
 * one chunk throws, that exception is rethrown unchanged; if several
 * throw, a ParallelError aggregating every failure is thrown instead.
 *
 * The caller always works and waits only on chunks already claimed, so
 * a parallelFor nested inside another's body (or inside any pool task)
 * cannot deadlock.
 */
void parallelFor(std::size_t width, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace dnastore

