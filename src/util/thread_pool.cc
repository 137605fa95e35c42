#include "util/thread_pool.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/cpu_time.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

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

/**
 * One parallelFor call's chunks, shared by its caller and its helper
 * tasks.  A helper may start after the caller has returned, so the
 * state is reference-counted; fn is touched only while running a
 * claimed chunk, which the caller waits for.
 */
struct Loop
{
    Loop(const std::function<void(std::size_t)> &body, std::size_t items,
         std::size_t parts)
        : fn(body), n(items), chunks(parts), errors(parts)
    {
    }

    const std::function<void(std::size_t)> &fn;
    const std::size_t n;
    const std::size_t chunks;
    Mutex mutex{"util.parallel_for"};
    CondVar all_finished;
    std::size_t next DNASTORE_GUARDED_BY(mutex) = 0;
    std::size_t finished DNASTORE_GUARDED_BY(mutex) = 0;
    /** Per chunk: the exception that stopped it, if any. */
    std::vector<std::exception_ptr> errors DNASTORE_GUARDED_BY(mutex);
};

/** Claim and run chunks in order until none is left unclaimed. */
void
runChunks(Loop &loop)
{
    for (;;) {
        std::size_t chunk = 0;
        {
            MutexLock lock(loop.mutex);
            if (loop.next == loop.chunks)
                return;
            chunk = loop.next++;
        }
        std::exception_ptr error;
        try {
            const std::size_t end = (chunk + 1) * loop.n / loop.chunks;
            for (std::size_t i = chunk * loop.n / loop.chunks; i < end; ++i)
                loop.fn(i);
        } catch (...) {
            error = std::current_exception();
        }
        bool last = false;
        {
            MutexLock lock(loop.mutex);
            loop.errors[chunk] = std::move(error);
            last = ++loop.finished == loop.chunks;
        }
        if (last)
            loop.all_finished.notifyAll();
    }
}

/** The process-wide pool, tagged with the process that started it. */
struct SharedPool
{
    explicit SharedPool(pid_t owner) : pid(owner) {}

    const pid_t pid;
    ThreadPool pool{0};
};

std::atomic<SharedPool *> shared_pool{nullptr};

} // namespace

ThreadPool &
sharedPool()
{
    // A forked child inherits its parent's pointer, but not the workers
    // behind it, and the pool's mutex may have been held at the fork:
    // the child starts its own pool and leaves the parent's untouched.
    // The pointer is an atomic rather than mutex-guarded for the same
    // reason.  Threads racing to start a pool keep the first; the
    // others' pools are joined and dropped.
    const pid_t self = ::getpid();
    SharedPool *current = shared_pool.load(std::memory_order_acquire);
    while (current == nullptr || current->pid != self) {
        auto fresh = std::make_unique<SharedPool>(self);
        if (shared_pool.compare_exchange_strong(current, fresh.get(),
                                                std::memory_order_acq_rel))
            return fresh.release()->pool;
    }
    return current->pool;
}

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
    // Initialise the function-local statics the workers use here, on
    // the constructing thread: a fork while a late-starting worker held
    // one's initialisation lock would leave it held in the child, whose
    // own pool's workers would then block on it forever.
    poolMetrics();
    obs::traceNowMicros();
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
        task.fn();
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
parallelFor(std::size_t width, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    // Resolve width 0 only for a loop a helper could share, so an
    // inline loop never starts the pool.
    if (width == 0 && n > 1)
        width = sharedPool().size();
    const std::size_t threads = std::min(width, n);
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Over-decompose a little so uneven work balances out.
    const std::size_t chunks = std::min(n, width * 4);
    const auto loop = std::make_shared<Loop>(fn, n, chunks);
    ThreadPool &pool = sharedPool();
    for (std::size_t helper = 1; helper < threads; ++helper)
        (void)pool.submit([loop] { runChunks(*loop); });
    Loop &state = *loop;
    runChunks(state);

    std::vector<std::exception_ptr> errors;
    {
        MutexLock lock(state.mutex);
        while (state.finished < state.chunks)
            state.all_finished.wait(state.mutex);
        errors = std::move(state.errors);
    }

    // A single failure rethrows its original exception (type
    // preserved); several are aggregated into one ParallelError.
    std::exception_ptr first;
    std::vector<std::string> messages;
    for (const std::exception_ptr &error : errors) {
        if (!error)
            continue;
        if (!first)
            first = error;
        try {
            std::rethrow_exception(error);
        } catch (const std::exception &e) {
            messages.emplace_back(e.what());
        } catch (...) {
            messages.emplace_back("unknown exception");
        }
    }
    if (messages.size() == 1)
        std::rethrow_exception(first);
    if (!messages.empty())
        throw ParallelError(std::move(messages), chunks);
}

} // namespace dnastore
