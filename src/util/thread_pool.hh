/**
 * @file
 * A small fixed-size thread pool used by the clustering and reconstruction
 * modules.  Tasks are arbitrary callables; parallelFor provides chunked
 * data-parallel loops with exception propagation.  poolFor and
 * forEachIndex own the one choice every loop site makes: run inline or
 * fan out to a pool.
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
#include "obs/stage_tag.hh"
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
            tasks.emplace(PendingTask{[task] { (*task)(); },
                                      obs::traceNowMicros(),
                                      obs::currentStageTag()});
        }
        available.notifyOne();
        return future;
    }

    /**
     * Run fn(i) for every i in [begin, end), distributing contiguous chunks
     * (at most four per worker) over the pool.  Blocks until all
     * iterations finish.  A chunk stops at its first throwing iteration.
     * If exactly one chunk throws, that exception is rethrown unchanged;
     * if several throw, a ParallelError aggregating every failure is
     * thrown instead.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &fn);

  private:
    /**
     * A queued task plus the attribution the worker needs: when it was
     * enqueued (for the queue-wait histogram) and the submitter's stage
     * tag (so pool work stays attributed to the scheduling stage).
     */
    struct PendingTask
    {
        std::function<void()> fn;
        std::uint64_t enqueue_us = 0;
        const char *stage_tag = nullptr;
    };

    void workerLoop();

    std::vector<std::thread> workers;
    Mutex mutex{"util.thread_pool"};
    std::queue<PendingTask> tasks DNASTORE_GUARDED_BY(mutex);
    CondVar available;
    bool stopping DNASTORE_GUARDED_BY(mutex) = false;
};

/**
 * The pool a loop over @p n items fans out to: null when
 * min(num_threads, n) <= 1, so the loop runs inline; otherwise a fresh
 * pool of min(num_threads, n) workers.
 */
std::unique_ptr<ThreadPool> poolFor(std::size_t num_threads, std::size_t n);

/**
 * Run fn(i) for every i in [0, n): on @p pool when it is non-null
 * (ThreadPool::parallelFor semantics), else inline on the calling
 * thread in index order, where the first exception propagates as is.
 * Typical call: forEachIndex(poolFor(num_threads, n).get(), n, fn).
 */
void forEachIndex(ThreadPool *pool, std::size_t n,
                  const std::function<void(std::size_t)> &fn);

} // namespace dnastore

