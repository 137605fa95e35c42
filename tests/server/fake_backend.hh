/**
 * @file
 * Deterministic in-memory Backend for scheduler and server tests: a
 * name→bytes map with a gate that holds fetches open, so tests can pile
 * up concurrent requests and observe coalescing, batching and admission
 * decisions without real (seconds-long) DNA decodes.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/backend.hh"
#include "util/sync.hh"

namespace dnastore::server::testing
{

/** Reusable open/closed latch for holding backend calls. */
class Gate
{
  public:
    void
    open()
    {
        MutexLock lock(mu_);
        open_ = true;
        cv_.notifyAll();
    }

    void
    close()
    {
        MutexLock lock(mu_);
        open_ = false;
    }

    void
    await()
    {
        MutexLock lock(mu_);
        while (!open_)
            cv_.wait(mu_);
    }

  private:
    Mutex mu_;
    CondVar cv_;
    bool open_ DNASTORE_GUARDED_BY(mu_) = true;
};

class FakeBackend final : public Backend
{
  public:
    /** Pre-populate an object. */
    void
    add(const std::string &name, std::vector<std::uint8_t> data)
    {
        MutexLock lock(mu_);
        objects_[name] = std::move(data);
    }

    [[nodiscard]] std::vector<FetchResult>
    fetchMany(const std::vector<std::string> &names) override
    {
        {
            MutexLock lock(mu_);
            ++fetches_;
            peak_calls_ = std::max(peak_calls_, ++running_fetches_);
            batch_sizes_.push_back(names.size());
            for (const std::string &name : names)
                ops_.push_back("fetch:" + name);
        }
        fetch_gate.await();
        std::vector<FetchResult> results(names.size());
        MutexLock lock(mu_);
        --running_fetches_;
        for (std::size_t i = 0; i < names.size(); ++i) {
            auto it = objects_.find(names[i]);
            if (it == objects_.end()) {
                results[i].status = ServerStatus::NotFound;
                results[i].error = "no object named '" + names[i] + "'";
            } else {
                results[i].status = ServerStatus::Ok;
                results[i].data = it->second;
            }
        }
        return results;
    }

    [[nodiscard]] StoreResult
    storeObject(const std::string &name,
                const std::vector<std::uint8_t> &data) override
    {
        StoreResult result;
        MutexLock lock(mu_);
        countCallLocked();
        ops_.push_back("store:" + name);
        if (objects_.count(name) != 0) {
            result.status = ServerStatus::AlreadyExists;
            result.error = "object '" + name + "' already exists";
            return result;
        }
        objects_[name] = data;
        result.status = ServerStatus::Ok;
        result.receipt_json = "{\"name\":\"" + name + "\"}";
        return result;
    }

    [[nodiscard]] MetaResult
    list() override
    {
        MetaResult result;
        MutexLock lock(mu_);
        countCallLocked();
        ops_.push_back("ls");
        result.status = ServerStatus::Ok;
        result.json = "{\"schema\":\"dnastore.archive_ls\",\"num_objects\":" +
                      std::to_string(objects_.size()) + "}";
        return result;
    }

    [[nodiscard]] MetaResult
    statObject(const std::string &name) override
    {
        MetaResult result;
        MutexLock lock(mu_);
        countCallLocked();
        ops_.push_back("stat:" + name);
        if (objects_.count(name) == 0) {
            result.status = ServerStatus::NotFound;
            result.error = "no object named '" + name + "'";
            return result;
        }
        result.status = ServerStatus::Ok;
        result.json = "{\"name\":\"" + name + "\"}";
        return result;
    }

    std::uint64_t
    fetches() const
    {
        MutexLock lock(mu_);
        return fetches_;
    }

    std::vector<std::size_t>
    batchSizes() const
    {
        MutexLock lock(mu_);
        return batch_sizes_;
    }

    /** Backend calls in arrival order ("fetch:a", "store:b", ...). */
    std::vector<std::string>
    ops() const
    {
        MutexLock lock(mu_);
        return ops_;
    }

    /** Most backend calls that were ever in progress at once. */
    std::size_t
    peakCalls() const
    {
        MutexLock lock(mu_);
        return peak_calls_;
    }

    /** Fetches block here after being counted; open by default. */
    Gate fetch_gate;

  private:
    /** A store, list or stat holds mu_ throughout, so it overlaps only
     *  fetches. */
    void
    countCallLocked() DNASTORE_REQUIRES(mu_)
    {
        peak_calls_ = std::max(peak_calls_, running_fetches_ + 1);
    }

    mutable Mutex mu_;
    std::map<std::string, std::vector<std::uint8_t>> objects_
        DNASTORE_GUARDED_BY(mu_);
    std::uint64_t fetches_ DNASTORE_GUARDED_BY(mu_) = 0;
    std::vector<std::size_t> batch_sizes_ DNASTORE_GUARDED_BY(mu_);
    std::vector<std::string> ops_ DNASTORE_GUARDED_BY(mu_);
    std::size_t running_fetches_ DNASTORE_GUARDED_BY(mu_) = 0;
    std::size_t peak_calls_ DNASTORE_GUARDED_BY(mu_) = 0;
};

} // namespace dnastore::server::testing
