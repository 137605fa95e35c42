/**
 * @file
 * Backend adapter over a real archive::Archive: fetchMany maps onto
 * Archive::getMany (one flattened shard batch per scheduler dispatch),
 * store onto Archive::put, and the metadata reads onto the canonical
 * lsJson/statJson emitters shared with `dnastore archive --json`.
 *
 * ArchiveStatus values translate into the wire-level ServerStatus
 * taxonomy here, so the scheduler and sessions never see archive
 * internals.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "archive/archive.hh"
#include "server/backend.hh"

namespace dnastore::server
{

/** Map an archive outcome onto the wire taxonomy. */
[[nodiscard]] ServerStatus
serverStatusFromArchive(archive::ArchiveStatus status);

/**
 * Production backend: one open archive.  Thread-safety follows
 * Archive's contract — const reads (fetchMany/list/statObject) may run
 * concurrently, storeObject() must be exclusive; the scheduler enforces the
 * exclusion, this adapter only forwards.
 */
class ArchiveBackend final : public Backend
{
  public:
    /**
     * @param archive open archive, owned by the caller, outlives this.
     * @param config retrieval knobs applied to every fetch.
     * @param put_threads shard-encode width of storeObject() (a
     *                    parallelFor width: 0 = the shared pool's size).
     */
    ArchiveBackend(archive::Archive &archive,
                   const archive::RetrievalConfig &config,
                   std::size_t put_threads)
        : archive_(archive)
        , config_(config)
        , put_threads_(put_threads)
    {
    }

    [[nodiscard]] std::vector<FetchResult>
    fetchMany(const std::vector<std::string> &names) override;

    [[nodiscard]] StoreResult
    storeObject(const std::string &name,
                const std::vector<std::uint8_t> &data) override;

    [[nodiscard]] MetaResult list() override;

    [[nodiscard]] MetaResult statObject(const std::string &name) override;

  private:
    archive::Archive &archive_;
    archive::RetrievalConfig config_;
    std::size_t put_threads_;
};

} // namespace dnastore::server
