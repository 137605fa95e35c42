#include "server/scheduler.hh"

#include <utility>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/thread_pool.hh"

namespace dnastore::server
{

/** Process-global metric handles, fetched once (registration locks). */
struct SchedulerMetrics
{
    obs::Counter &requests_total;
    obs::Counter &coalesced_gets_total;
    obs::Counter &batches_total;
    obs::Counter &batched_gets_total;
    obs::Counter &rejected_overload_total;
    obs::Counter &rejected_quota_total;
    obs::Counter &rejected_draining_total;
    obs::Gauge &inflight_requests;
    obs::FixedHistogram &queue_wait_seconds;
    obs::FixedHistogram &get_seconds;
    obs::FixedHistogram &put_seconds;
    obs::FixedHistogram &meta_seconds;
};

namespace
{

SchedulerMetrics &
schedulerMetrics()
{
    static SchedulerMetrics m{
        obs::metrics().counter("server.requests_total"),
        obs::metrics().counter("server.coalesced_gets_total"),
        obs::metrics().counter("server.batches_total"),
        obs::metrics().counter("server.batched_gets_total"),
        obs::metrics().counter("server.rejected_overload_total"),
        obs::metrics().counter("server.rejected_quota_total"),
        obs::metrics().counter("server.rejected_draining_total"),
        obs::metrics().gauge("server.inflight_requests"),
        obs::metrics().histogram("server.queue_wait_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("server.get_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("server.put_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("server.meta_seconds",
                                 obs::latencyBucketsSeconds()),
    };
    return m;
}

double
secondsSince(std::uint64_t submit_us)
{
    const std::uint64_t now_us = obs::traceNowMicros();
    return now_us > submit_us
               ? static_cast<double>(now_us - submit_us) / 1e6
               : 0.0;
}

} // namespace

Scheduler::Scheduler(Backend &backend, const SchedulerConfig &config)
    : backend_(backend)
    , config_(config)
    , metrics_(schedulerMetrics())
    , max_running_(config.num_threads != 0 ? config.num_threads
                                           : sharedPool().size())
{
    (void)sharedPool(); // Start the workers now, not on the first request.
}

Scheduler::~Scheduler()
{
    beginDrain();
    drainWait();
}

ServerStatus
Scheduler::admitLocked(std::uint64_t client_id)
{
    if (draining_) {
        ++counters_.rejected_draining;
        metrics_.rejected_draining_total.add(1);
        return ServerStatus::ShuttingDown;
    }
    if (inflight_total_ >= config_.max_inflight) {
        ++counters_.rejected_overload;
        metrics_.rejected_overload_total.add(1);
        return ServerStatus::Overloaded;
    }
    std::size_t &client_count = per_client_[client_id];
    if (client_count >= config_.per_client_inflight) {
        if (client_count == 0)
            per_client_.erase(client_id);
        ++counters_.rejected_quota;
        metrics_.rejected_quota_total.add(1);
        return ServerStatus::QuotaExceeded;
    }
    ++client_count;
    ++inflight_total_;
    ++counters_.requests;
    metrics_.requests_total.add(1);
    metrics_.inflight_requests.set(static_cast<double>(inflight_total_));
    return ServerStatus::Ok;
}

void
Scheduler::releaseLocked(std::uint64_t client_id)
{
    auto it = per_client_.find(client_id);
    if (it != per_client_.end()) {
        if (it->second > 0)
            --it->second;
        if (it->second == 0)
            per_client_.erase(it);
    }
    if (inflight_total_ > 0)
        --inflight_total_;
    metrics_.inflight_requests.set(static_cast<double>(inflight_total_));
}

ServerStatus
Scheduler::submitGet(std::uint64_t client_id, const std::string &name,
                     GetCallback done)
{
    PendingWork work;
    {
        MutexLock lock(mu_);
        const ServerStatus admit = admitLocked(client_id);
        if (admit != ServerStatus::Ok)
            return admit;
        GetGroup &group = groups_[name];
        const bool fresh = group.waiters.empty() && !group.running;
        group.waiters.push_back(
            {client_id, std::move(done), obs::traceNowMicros()});
        if (fresh) {
            get_queue_.push_back(name);
        } else {
            // Joined a queued or in-flight fetch of the same object.
            ++counters_.coalesced_gets;
            metrics_.coalesced_gets_total.add(1);
        }
        pumpLocked(work);
    }
    launch(work);
    return ServerStatus::Ok;
}

ServerStatus
Scheduler::submitPut(std::uint64_t client_id, std::string name,
                     std::vector<std::uint8_t> data, PutCallback done)
{
    PendingWork work;
    {
        MutexLock lock(mu_);
        const ServerStatus admit = admitLocked(client_id);
        if (admit != ServerStatus::Ok)
            return admit;
        put_queue_.push_back(std::make_shared<PutJob>(
            PutJob{client_id, std::move(name), std::move(data),
                   std::move(done), obs::traceNowMicros()}));
        pumpLocked(work);
    }
    launch(work);
    return ServerStatus::Ok;
}

ServerStatus
Scheduler::submitLs(std::uint64_t client_id, MetaCallback done)
{
    return submitMeta(MetaJob{client_id, false, {}, std::move(done)});
}

ServerStatus
Scheduler::submitStat(std::uint64_t client_id, std::string name,
                      MetaCallback done)
{
    return submitMeta(
        MetaJob{client_id, true, std::move(name), std::move(done)});
}

ServerStatus
Scheduler::submitMeta(MetaJob job)
{
    PendingWork work;
    {
        MutexLock lock(mu_);
        const ServerStatus admit = admitLocked(job.client_id);
        if (admit != ServerStatus::Ok)
            return admit;
        job.submit_us = obs::traceNowMicros();
        meta_queue_.push_back(std::make_shared<MetaJob>(std::move(job)));
        pumpLocked(work);
    }
    launch(work);
    return ServerStatus::Ok;
}

void
Scheduler::pumpLocked(PendingWork &work)
{
    if (put_active_)
        return;
    if (!put_queue_.empty()) {
        // Put priority: no new reads start while a put is pending, and
        // the put itself waits for active reads to drain (Archive::put
        // mutates, gets are const).
        if (running_ == 0) {
            work.put = std::move(put_queue_.front());
            put_queue_.pop_front();
            put_active_ = true;
            ++running_;
            metrics_.queue_wait_seconds.observe(
                secondsSince(work.put->submit_us));
        }
        return;
    }
    while (running_ < max_running_ && !meta_queue_.empty()) {
        std::shared_ptr<MetaJob> job = std::move(meta_queue_.front());
        meta_queue_.pop_front();
        ++running_;
        metrics_.queue_wait_seconds.observe(secondsSince(job->submit_us));
        work.metas.push_back(std::move(job));
    }
    while (running_ < max_running_ &&
           running_batches_ < config_.max_concurrent_batches &&
           !get_queue_.empty()) {
        std::vector<std::string> names;
        while (names.size() < config_.batch_max && !get_queue_.empty()) {
            std::string name = std::move(get_queue_.front());
            get_queue_.pop_front();
            auto it = groups_.find(name);
            if (it == groups_.end())
                continue; // Stale queue entry; group already served.
            it->second.running = true;
            for (const GetWaiter &waiter : it->second.waiters)
                metrics_.queue_wait_seconds.observe(
                    secondsSince(waiter.submit_us));
            names.push_back(std::move(name));
        }
        if (names.empty())
            break;
        ++running_batches_;
        ++running_;
        ++counters_.batches;
        counters_.batched_gets += names.size();
        metrics_.batches_total.add(1);
        metrics_.batched_gets_total.add(names.size());
        work.batches.push_back(std::move(names));
    }
}

void
Scheduler::launch(PendingWork &work)
{
    // The jobs move on into run*, which drop them before finish().
    if (work.put)
        (void)sharedPool().submit(
            [this, job = std::move(work.put)]() mutable {
                runPut(std::move(job));
            });
    for (std::shared_ptr<MetaJob> &job : work.metas)
        (void)sharedPool().submit([this, job = std::move(job)]() mutable {
            runMeta(std::move(job));
        });
    for (std::vector<std::string> &names : work.batches)
        (void)sharedPool().submit([this, names = std::move(names)] {
            runBatch(names);
        });
}

void
Scheduler::runBatch(const std::vector<std::string> &names)
{
    std::vector<FetchResult> results = backend_.fetchMany(names);
    results.resize(names.size()); // Defensive: align with names.

    // Claim every group's waiters, then deliver outside the lock.
    std::vector<std::vector<GetWaiter>> waiters(names.size());
    {
        MutexLock lock(mu_);
        for (std::size_t i = 0; i < names.size(); ++i) {
            auto it = groups_.find(names[i]);
            if (it == groups_.end())
                continue;
            waiters[i] = std::move(it->second.waiters);
            groups_.erase(it);
        }
        --running_batches_;
    }

    std::vector<std::uint64_t> clients;
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (GetWaiter &waiter : waiters[i]) {
            metrics_.get_seconds.observe(secondsSince(waiter.submit_us));
            if (waiter.done)
                waiter.done(results[i]);
            clients.push_back(waiter.client_id);
        }
    }
    waiters.clear();
    finish(clients);
}

void
Scheduler::runPut(std::shared_ptr<PutJob> job)
{
    const StoreResult result = backend_.storeObject(job->name, job->data);
    metrics_.put_seconds.observe(secondsSince(job->submit_us));
    if (job->done)
        job->done(result);
    const std::uint64_t client = job->client_id;
    job.reset();
    finish({client});
}

void
Scheduler::runMeta(std::shared_ptr<MetaJob> job)
{
    const MetaResult result = job->is_stat
                                  ? backend_.statObject(job->name)
                                  : backend_.list();
    metrics_.meta_seconds.observe(secondsSince(job->submit_us));
    if (job->done)
        job->done(result);
    const std::uint64_t client = job->client_id;
    job.reset();
    finish({client});
}

void
Scheduler::finish(const std::vector<std::uint64_t> &clients)
{
    PendingWork work;
    {
        MutexLock lock(mu_);
        // Nothing else runs beside a put, so while put_active_ is set
        // the finishing task is the put.
        put_active_ = false;
        for (const std::uint64_t client : clients)
            releaseLocked(client);
        --running_;
        pumpLocked(work);
        // Notified under mu_: a drain waiter cannot return (and destroy
        // idle_cv_) until this section has ended.
        if (idleLocked())
            idle_cv_.notifyAll();
    }
    // Work handed out above is counted: it keeps the scheduler alive.
    if (!work.empty())
        launch(work);
}

bool
Scheduler::idleLocked() const
{
    // A queued request stays admitted until its task's finish(), so
    // empty queues follow from inflight_total_ == 0.
    return inflight_total_ == 0 && running_ == 0;
}

void
Scheduler::beginDrain()
{
    MutexLock lock(mu_);
    draining_ = true;
    if (idleLocked())
        idle_cv_.notifyAll();
}

void
Scheduler::drainWait()
{
    MutexLock lock(mu_);
    while (!idleLocked())
        idle_cv_.wait(mu_);
}

bool
Scheduler::idle() const
{
    MutexLock lock(mu_);
    return idleLocked();
}

SchedulerCounters
Scheduler::counters() const
{
    MutexLock lock(mu_);
    return counters_;
}

} // namespace dnastore::server
