/**
 * @file
 * A primer-addressed multi-object DNA archive (paper Sections II-E/F
 * and VIII; Yazdi et al. random-access addressing, Organick-style
 * pooling): many objects live in ONE mixed pool of primer-tagged
 * molecules, and any object is retrieved by PCR-selecting its shards'
 * primer pairs and running only the matching molecules through the
 * retrieval half of the pipeline.
 *
 * Layout on disk (one directory per archive):
 *   manifest.json  CRC-guarded table of contents (archive/manifest.hh)
 *   pool.fasta     every tagged molecule, one record per strand, with
 *                  its primer pair id in the record id ("m7 pair=3")
 *
 * Large objects are sharded into bounded-size sub-pools; every shard is
 * an independent codec run under its own primer pair, so shards decode
 * in isolation (a corrupted shard cannot poison its neighbours) and
 * decode side by side in one parallelFor.  The manifest itself is additionally
 * encoded into the pool under the reserved pair id 0, keeping the
 * archive self-describing in DNA.
 *
 * No-throw contract: every public Archive operation reports failures
 * through ArchiveStatus / per-shard StageStatus values (PR-1 taxonomy)
 * instead of raising; module exceptions are caught at the archive
 * boundary.
 *
 * Thread-safety: const operations (get, stat, objects,
 * decodeManifestFromDna) may run concurrently on one Archive — the
 * lazily designed primer library is guarded internally.  Mutating
 * operations (put) require exclusive access.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "archive/manifest.hh"
#include "core/fault.hh"
#include "core/pipeline.hh"
#include "core/pool.hh"
#include "util/random.hh"
#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace dnastore::archive
{

/** Outcome taxonomy of archive operations (never thrown, returned). */
enum class ArchiveStatus : std::uint8_t
{
    Ok = 0,
    NotFound,        //!< No such object / archive directory.
    AlreadyExists,   //!< Object name or archive already present.
    InvalidArgument, //!< Bad name, empty parameter, bad config.
    IoError,         //!< Directory/file could not be read or written.
    CorruptManifest, //!< Manifest unreadable, bad schema or CRC.
    CorruptPool,     //!< Pool file disagrees with the manifest.
    EncodeFailed,    //!< A shard's codec run failed during put.
    DecodeFailed,    //!< One or more shards failed to decode on get.
};

/** Human-readable status name. */
const char *archiveStatusName(ArchiveStatus status);

/**
 * Pool record id "m<index> pair=<pair_id>": the pair id is the
 * molecule's PCR address and must survive the FASTA round trip.  Kept
 * public so `archive fsck` audits the exact format the writer emits.
 */
[[nodiscard]] std::string poolRecordId(std::size_t index,
                                       std::uint32_t pair_id);

/** Recover the pair id from a pool record id; nullopt when malformed. */
[[nodiscard]] std::optional<std::uint32_t>
tryParsePoolRecordPair(const std::string &id);

/** The two files of an archive directory. */
inline constexpr const char *kManifestFile = "manifest.json";
inline constexpr const char *kPoolFile = "pool.fasta";

/** A pool record no manifest pair can address. */
struct RejectedPoolRecord
{
    std::string id;
    std::optional<std::uint32_t> pair_id; //!< Orphan pair; none: malformed.
};

/** A shard whose pair holds a different strand count than promised. */
struct StrandCountMismatch
{
    std::string object;
    std::uint32_t pair_id = 0;
    std::size_t expected = 0; //!< Strands the manifest promises.
    std::size_t actual = 0;   //!< Strands the pool holds.
};

/**
 * Everything read from an archive directory, before any policy: open()
 * refuses malformed records and count mismatches, fsck reports and
 * repairs them.  A file that is absent or unparsable stops the read
 * with status != Ok; the manifest is set unless it was that file.
 */
struct ArchiveFiles
{
    ArchiveStatus status = ArchiveStatus::Ok;
    std::string error;
    bool missing_file = false; //!< The failed file is absent, not corrupt.
    std::optional<ArchiveManifest> manifest;
    DnaPool pool; //!< Records under referenced pair ids, grouped by pair.
    std::vector<RejectedPoolRecord> rejected; //!< In file order.
    std::vector<StrandCountMismatch> mismatches; //!< In manifest order.
};

/**
 * Read manifest.json and pool.fasta of @p dir: parse the manifest,
 * parse every record id and group molecules by pair, collecting the
 * malformed, orphan and strand-count facts.  @p crash_points hits
 * open()'s crash points (archive.open.manifest / .pool) before each read.
 */
[[nodiscard]] ArchiveFiles readArchiveFiles(const std::string &dir,
                                            bool crash_points);

/**
 * Atomically write @p pool as the pool file of @p dir: sections in
 * order, record ids poolRecordId(index, key) with contiguous indices.
 */
bool writePoolFile(const std::string &dir, const DnaPool &pool);

/** Which channel model the retrieval simulation pushes reads through. */
enum class RetrievalChannel : std::uint8_t
{
    Iid = 0,    //!< IID indel/substitution channel.
    Wetlab = 1, //!< The virtual-wetlab reference channel.
};

/**
 * Knobs of one retrieval (get): the simulated wetlab between the pool
 * and the decoder.  Defaults give a realistic but decodable read-out.
 */
struct RetrievalConfig
{
    RetrievalChannel channel = RetrievalChannel::Iid;
    double error_rate = 0.03;     //!< Channel base error rate.
    double coverage = 12.0;       //!< Mean reads per molecule (Poisson).
    double pcr_off_target = 0.0;  //!< Contamination rate of PCR selection.
    std::size_t primer_max_edit = 5; //!< Primer-trim edit tolerance.
    std::uint64_t seed = 0xa5c1ULL; //!< Simulation seed (per-shard mixed).
    /** Shard-decode width of a get (a parallelFor width: 0 = the
     *  shared pool's size). */
    std::size_t num_threads = 1;
    std::size_t min_cluster_size = 2;
    std::size_t max_decode_retries = 1; //!< PR-1 recovery budget per shard.

    /**
     * Faults injected into every shard's retrieval (testing only).  Each
     * shard runs its own injector, seeded from (faults.seed, pair_id)
     * and given the archive's index width, so a faulted get decodes in
     * parallel and its result does not depend on num_threads.
     */
    FaultPlan faults;
};

/** Per-shard retrieval outcome (PR-1 StageStatus taxonomy). */
struct ShardOutcome
{
    std::uint32_t pair_id = 0;
    bool ok = false;              //!< Shard decoded byte-exactly.
    StageStatusSet stages;        //!< Per-stage statuses of the shard run.
    std::size_t reads = 0;        //!< Reads fed to the shard pipeline.
    std::size_t clusters = 0;
    std::vector<PipelineError> errors; //!< Errors from the shard run.
};

/** Result of Archive::put. */
struct PutResult
{
    ArchiveStatus status = ArchiveStatus::Ok;
    std::string error;            //!< Detail when status != Ok.
    std::uint32_t object_id = 0;
    std::size_t shards = 0;
    std::size_t strands = 0;      //!< Tagged molecules added to the pool.

    bool ok() const { return status == ArchiveStatus::Ok; }
};

/** Result of Archive::get. */
struct GetResult
{
    ArchiveStatus status = ArchiveStatus::Ok;
    std::string error;
    std::vector<std::uint8_t> data;  //!< Recovered object (empty on failure).
    std::vector<ShardOutcome> shards; //!< One entry per shard, in order.

    bool ok() const { return status == ArchiveStatus::Ok; }
};

/** Result of Archive::create / Archive::open (defined after Archive). */
struct OpenResult;

/**
 * An open archive.  Obtained from Archive::create / Archive::open;
 * operations load and persist the manifest + pool files under the
 * archive directory.
 */
class Archive
{
  public:
    /**
     * Create a new archive directory with the given parameters and
     * write an empty manifest + pool.  Fails with AlreadyExists when a
     * manifest is already present.
     */
    [[nodiscard]] static OpenResult create(const std::string &dir,
                                           const ArchiveParams &params);

    /** Open an existing archive directory. */
    [[nodiscard]] static OpenResult open(const std::string &dir);

    /**
     * Store @p data under @p name: shard, encode every shard as its own
     * codec run (a parallelFor of width num_threads over the shards; 0
     * = the shared pool's size), tag each shard's strands with a fresh
     * primer pair and merge them into the pool.  Persists manifest +
     * pool before returning Ok.
     */
    PutResult put(const std::string &name,
                  const std::vector<std::uint8_t> &data,
                  std::size_t num_threads = 1);

    /**
     * Retrieve @p name: getMany({name}, config)[0].  Each shard's primer
     * pair is PCR-selected out of the mixed pool, sequenced through the
     * configured channel, preprocessed (orientation + primer trim) and
     * decoded independently, in parallel when config.num_threads != 1
     * and the object has several shards.  On success data is byte-exact
     * (object CRC verified); on failure the per-shard outcomes pin
     * down exactly which shards and stages degraded.
     */
    [[nodiscard]] GetResult get(const std::string &name,
                                const RetrievalConfig &config = {}) const;

    /**
     * Retrieve several objects in ONE batched shard-decode pass: all
     * shards of all requested objects flatten into one parallelFor of
     * width config.num_threads, so a multi-object read amortises pool
     * scans and keeps the threads busy even when objects have few shards
     * (the `dnastored` scheduler's batching hook).  Results align with
     * @p names index-for-index; per-object failures are independent.
     */
    [[nodiscard]] std::vector<GetResult>
    getMany(const std::vector<std::string> &names,
            const RetrievalConfig &config = {}) const;

    /** Objects in store order. */
    const std::vector<ObjectEntry> &objects() const
    {
        return manifest_.objects;
    }

    /** Object metadata by name; nullptr when absent. */
    const ObjectEntry *stat(std::string_view name) const
    {
        return manifest_.findObject(name);
    }

    /** The full manifest (params + objects). */
    const ArchiveManifest &manifest() const { return manifest_; }

    /** Archive directory path. */
    const std::string &dir() const { return dir_; }

    /** Tagged molecules currently in the pool (all objects + manifest). */
    std::size_t poolSize() const { return pool_.size(); }

    /** The committed pool, one section per pair id, in file order. */
    const DnaPool &pool() const { return pool_; }

    /**
     * Decode the DNA-encoded manifest copy (reserved pair id 0) back
     * out of the pool through the same simulated retrieval path and
     * parse it — proof the archive is self-describing in DNA.
     */
    [[nodiscard]] ManifestParseResult
    decodeManifestFromDna(const RetrievalConfig &config = {}) const;

  private:
    Archive() = default;

    /** (Re)build codec modules from manifest_.params; false on error. */
    bool buildCodecs(std::string &error);

    /**
     * Ensure the cached primer library covers pair ids [0, num_pairs).
     * Designed deterministically from params.primer_seed and grown from
     * where the last design stopped, so the library is built lazily
     * (const) on whichever operation first needs it.
     */
    bool ensurePairs(std::size_t num_pairs, std::string &error) const;

    /**
     * Persist manifest.json + pool.fasta (incl. DNA manifest copy) with
     * the @p added sections appended; pool_ and pool_text_ take them
     * only on success.
     */
    bool save(std::string &error, std::vector<DnaPool::Section> added = {});

    /**
     * Read access to the designed primer library after a successful
     * ensurePairs() on this call path.  Safe without the mutex: once a
     * caller's ensurePairs returned, no concurrent const operation can
     * shrink or replace the library (designs only ever grow, prefix-
     * stable), so the annotation is suppressed rather than taking the
     * lock on every pairFor lookup.
     */
    const PrimerLibrary &
    publishedLibrary() const DNASTORE_NO_THREAD_SAFETY_ANALYSIS
    {
        return *library_;
    }

    /** Decode one shard out of the pool; returns its payload bytes. */
    [[nodiscard]] std::vector<std::uint8_t>
    decodeShard(const ShardEntry &shard, const RetrievalConfig &config,
                ShardOutcome &outcome) const;

    std::string dir_;
    ArchiveManifest manifest_;
    DnaPool pool_; //!< Tagged molecules, one section per pair id.
    /**
     * The committed pool.fasta text of every section but pair 0 (the
     * manifest mirror, rebuilt on each save), laid out as writePoolFile
     * does, and its record count: a save formats only what it adds.
     */
    std::string pool_text_;
    std::size_t pool_records_ = 0;
    std::shared_ptr<MatrixEncoder> encoder_;
    std::shared_ptr<MatrixDecoder> decoder_;
    /** Guards library_'s lazy design from concurrent const callers;
     *  heap-allocated so Archive stays movable. */
    mutable std::unique_ptr<Mutex> library_mutex_ =
        std::make_unique<Mutex>("archive.library");
    /** Lazily designed, grown primer cache; see ensurePairs. */
    mutable std::optional<PrimerLibrary> library_
        DNASTORE_GUARDED_BY(*library_mutex_);
    /** The design generator, left where library_'s design stopped. */
    mutable Rng library_rng_ DNASTORE_GUARDED_BY(*library_mutex_);
};

/** No-throw factory result: the archive is set iff status == Ok. */
struct OpenResult
{
    ArchiveStatus status = ArchiveStatus::Ok;
    std::string error;
    std::optional<Archive> archive; //!< Set iff status == Ok.

    bool ok() const { return status == ArchiveStatus::Ok; }
};

/**
 * Canonical machine-readable listing of @p archive (schema
 * `dnastore.archive_ls`, obs::JsonWriter): every object with its id,
 * sizes, CRC and shard count, plus pool totals.  Consumed by
 * `dnastore archive ls --json`, the server's LsOk reply and the load
 * generator.
 */
[[nodiscard]] std::string lsJson(const Archive &archive);

/**
 * Canonical machine-readable metadata of one object (schema
 * `dnastore.archive_stat`): sizes, CRC and the per-shard primer-pair
 * address table.  Consumed by `dnastore archive stat --json` and the
 * server's StatOk reply.
 */
[[nodiscard]] std::string statJson(const ObjectEntry &object);

} // namespace dnastore::archive
