#include "util/thread_pool.hh"

#include <algorithm>
#include <exception>

#include "obs/cpu_time.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/assert.hh"

namespace dnastore
{

namespace
{

std::string
summarise(const std::vector<std::string> &messages, std::size_t total)
{
    std::string text = std::to_string(messages.size()) + " of " +
        std::to_string(total) + " parallel chunks failed:";
    for (const auto &message : messages)
        text += " [" + message + "]";
    return text;
}

/** Registry handles fetched once; workers then only touch atomics. */
struct PoolMetrics
{
    obs::Counter &tasks_total;
    obs::Gauge &queue_depth;
    obs::FixedHistogram &task_seconds;
    obs::FixedHistogram &queue_wait_seconds;
    obs::FixedHistogram &task_cpu_seconds;
    obs::Counter &busy_micros_total;
    obs::Counter &idle_micros_total;
    obs::Gauge &utilization;
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics handles{
        obs::metrics().counter("util.thread_pool.tasks_total"),
        obs::metrics().gauge("util.thread_pool.queue_depth"),
        obs::metrics().histogram("util.thread_pool.task_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("util.thread_pool.queue_wait_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("util.thread_pool.task_cpu_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().counter("util.thread_pool.busy_micros_total"),
        obs::metrics().counter("util.thread_pool.idle_micros_total"),
        obs::metrics().gauge("util.thread_pool.utilization"),
    };
    return handles;
}

} // namespace

ParallelError::ParallelError(std::vector<std::string> messages,
                             std::size_t total_chunks)
    : std::runtime_error(summarise(messages, total_chunks)),
      messages_(std::move(messages)),
      total_chunks_(total_chunks)
{
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }
    workers.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex);
        stopping = true;
    }
    available.notifyAll();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    PoolMetrics &pm = poolMetrics();
    for (;;) {
        PendingTask task;
        const std::uint64_t idle_begin_us = obs::traceNowMicros();
        {
            // Manual predicate loop (not the lambda-predicate overload)
            // so the thread-safety analysis sees the guarded reads of
            // `stopping` and `tasks` happen with `mutex` held.
            MutexLock lock(mutex);
            while (!stopping && tasks.empty())
                available.wait(mutex);
            if (tasks.empty())
                return; // stopping and drained; shutdown wait uncounted
            task = std::move(tasks.front());
            tasks.pop();
            pm.queue_depth.set(static_cast<double>(tasks.size()));
        }
        const std::uint64_t begin_us = obs::traceNowMicros();
        // Idle = waiting for work; queue wait = the task waiting for a
        // worker.  Both end at the same dequeue instant.
        pm.idle_micros_total.add(begin_us - idle_begin_us);
        pm.queue_wait_seconds.observe(
            begin_us > task.enqueue_us
                ? static_cast<double>(begin_us - task.enqueue_us) * 1e-6
                : 0.0);
        pm.tasks_total.add();
        const std::uint64_t cpu_begin_ns = obs::threadCpuNanos();
        {
            // Adopt the submitter's stage tag so allocation attribution
            // follows the work onto the worker thread.
            obs::StageTagScope tag(task.stage_tag);
            task.fn();
        }
        const std::uint64_t cpu_end_ns = obs::threadCpuNanos();
        const std::uint64_t end_us = obs::traceNowMicros();
        pm.busy_micros_total.add(end_us - begin_us);
        pm.task_seconds.observe(
            static_cast<double>(end_us - begin_us) * 1e-6);
        pm.task_cpu_seconds.observe(
            cpu_end_ns > cpu_begin_ns
                ? static_cast<double>(cpu_end_ns - cpu_begin_ns) * 1e-9
                : 0.0);
        const double busy =
            static_cast<double>(pm.busy_micros_total.value());
        const double idle =
            static_cast<double>(pm.idle_micros_total.value());
        pm.utilization.set(busy + idle > 0.0 ? busy / (busy + idle)
                                             : 0.0);
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &fn)
{
    if (begin >= end)
        return;
    const std::size_t total = end - begin;
    // Over-decompose a little so uneven work balances out.
    const std::size_t chunks = std::min(total, size() * 4);
    const std::size_t chunk_size = (total + chunks - 1) / chunks;

    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t lo = begin; lo < end; lo += chunk_size) {
        const std::size_t hi = std::min(end, lo + chunk_size);
        futures.push_back(submit([lo, hi, &fn] {
            for (std::size_t i = lo; i < hi; ++i)
                fn(i);
        }));
    }
    DNASTORE_ASSERT(futures.size() <= chunks,
                    "chunk decomposition must not exceed its plan");

    // Drain every future so no worker exception vanishes.  A single
    // failure rethrows its original exception (type preserved); multiple
    // failures are aggregated into one ParallelError.
    std::exception_ptr first;
    std::vector<std::string> messages;
    for (auto &future : futures) {
        try {
            future.get();
        } catch (const std::exception &error) {
            if (!first)
                first = std::current_exception();
            messages.emplace_back(error.what());
        } catch (...) {
            if (!first)
                first = std::current_exception();
            messages.emplace_back("unknown exception");
        }
    }
    if (messages.size() == 1)
        std::rethrow_exception(first);
    if (!messages.empty())
        throw ParallelError(std::move(messages), futures.size());
}

std::unique_ptr<ThreadPool>
poolFor(std::size_t num_threads, std::size_t n)
{
    const std::size_t workers = std::min(num_threads, n);
    if (workers <= 1)
        return nullptr;
    return std::make_unique<ThreadPool>(workers);
}

void
forEachIndex(ThreadPool *pool, std::size_t n,
             const std::function<void(std::size_t)> &fn)
{
    if (pool != nullptr) {
        pool->parallelFor(0, n, fn);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace dnastore
