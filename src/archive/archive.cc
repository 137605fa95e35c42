#include "archive/archive.hh"

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "clustering/clusterer.hh"
#include "codec/matrix_codec.hh"
#include "core/pool.hh"
#include "dna/fastx.hh"
#include "obs/crashpoint.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/span.hh"
#include "obs/stage_tag.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/crc32.hh"
#include "util/thread_pool.hh"
#include "wetlab/preprocess.hh"

namespace dnastore::archive
{

namespace
{

constexpr const char *kManifestFile = "manifest.json";
constexpr const char *kPoolFile = "pool.fasta";

/** Shard-size histogram bounds in bytes (powers of four up to 64 KiB). */
std::vector<double>
shardSizeBuckets()
{
    return {64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0};
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/" + kManifestFile;
}

std::string
poolPath(const std::string &dir)
{
    return dir + "/" + kPoolFile;
}

/** Independent per-shard seed: decorrelates shards of one retrieval. */
std::uint64_t
shardSeed(std::uint64_t base, std::uint32_t pair_id)
{
    SplitMix64 mixer(base ^
                     (static_cast<std::uint64_t>(pair_id) *
                      0x9e3779b97f4a7c15ULL));
    return mixer.next();
}

std::vector<std::uint8_t>
stringToBytes(const std::string &text)
{
    return {text.begin(), text.end()};
}

} // namespace

std::string
poolRecordId(std::size_t index, std::uint32_t pair_id)
{
    return "m" + std::to_string(index) +
           " pair=" + std::to_string(pair_id);
}

std::optional<std::uint32_t>
tryParsePoolRecordPair(const std::string &id)
{
    const std::string marker = " pair=";
    const std::size_t at = id.rfind(marker);
    if (at == std::string::npos)
        return std::nullopt;
    const std::string digits = id.substr(at + marker.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    unsigned long long value = 0;
    const char *first = digits.data();
    const char *last = first + digits.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || value > 0xFFFFFFFFULL)
        return std::nullopt;
    return static_cast<std::uint32_t>(value);
}

const char *
archiveStatusName(ArchiveStatus status)
{
    switch (status) {
    case ArchiveStatus::Ok:
        return "ok";
    case ArchiveStatus::NotFound:
        return "not-found";
    case ArchiveStatus::AlreadyExists:
        return "already-exists";
    case ArchiveStatus::InvalidArgument:
        return "invalid-argument";
    case ArchiveStatus::IoError:
        return "io-error";
    case ArchiveStatus::CorruptManifest:
        return "corrupt-manifest";
    case ArchiveStatus::CorruptPool:
        return "corrupt-pool";
    case ArchiveStatus::EncodeFailed:
        return "encode-failed";
    case ArchiveStatus::DecodeFailed:
        return "decode-failed";
    }
    return "unknown";
}

bool
Archive::buildCodecs(std::string &error)
{
    try {
        manifest_.params.codec.validate();
        encoder_ = std::make_shared<MatrixEncoder>(manifest_.params.codec);
        decoder_ = std::make_shared<MatrixDecoder>(manifest_.params.codec);
        return true;
    } catch (const std::exception &e) {
        error = std::string("invalid codec config: ") + e.what();
        return false;
    }
}

bool
Archive::ensurePairs(std::size_t num_pairs, std::string &error) const
{
    // Serialise the lazy check-and-design: concurrent const callers
    // (get, decodeManifestFromDna) would otherwise race on replacing
    // library_.  Readers that only call pairFor() afterwards are safe
    // without the lock — once a caller's ensurePairs returned, no
    // concurrent const operation can shrink or replace the library.
    MutexLock lock(*library_mutex_);
    if (library_ && library_->numPairs() >= num_pairs)
        return true;
    try {
        // The greedy design is prefix-stable for a fixed seed: designing
        // a larger library reproduces the existing primers and appends
        // new ones, so previously assigned pair ids keep their sequences.
        Rng rng(manifest_.params.primer_seed);
        library_ = PrimerLibrary::design(rng, 2 * num_pairs,
                                         manifest_.params.primer);
        return true;
    } catch (const std::exception &e) {
        error = std::string("primer design failed: ") + e.what();
        return false;
    }
}

OpenResult
Archive::create(const std::string &dir, const ArchiveParams &params)
{
    OpenResult result;
    if (dir.empty()) {
        result.status = ArchiveStatus::InvalidArgument;
        result.error = "empty archive directory";
        return result;
    }
    if (params.max_shard_bytes == 0) {
        result.status = ArchiveStatus::InvalidArgument;
        result.error = "max_shard_bytes must be positive";
        return result;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        result.status = ArchiveStatus::IoError;
        result.error = "cannot create directory " + dir + ": " +
                       ec.message();
        return result;
    }
    if (std::filesystem::exists(manifestPath(dir), ec)) {
        result.status = ArchiveStatus::AlreadyExists;
        result.error = "archive already exists at " + dir;
        return result;
    }

    Archive archive;
    archive.dir_ = dir;
    archive.manifest_.params = params;
    if (!archive.buildCodecs(result.error)) {
        result.status = ArchiveStatus::InvalidArgument;
        return result;
    }
    if (!archive.save(result.error)) {
        result.status = ArchiveStatus::IoError;
        return result;
    }
    result.archive = std::move(archive);
    return result;
}

OpenResult
Archive::open(const std::string &dir)
{
    OpenResult result;
    obs::crash::hit("archive.open.manifest");
    std::ifstream manifest_in(manifestPath(dir), std::ios::binary);
    if (!manifest_in) {
        result.status = ArchiveStatus::NotFound;
        result.error = "no manifest at " + manifestPath(dir);
        return result;
    }
    std::ostringstream manifest_text;
    manifest_text << manifest_in.rdbuf();

    ManifestParseResult parsed = tryParseManifest(manifest_text.str());
    if (!parsed.manifest) {
        result.status = ArchiveStatus::CorruptManifest;
        result.error = parsed.error;
        return result;
    }

    Archive archive;
    archive.dir_ = dir;
    archive.manifest_ = std::move(*parsed.manifest);
    if (!archive.buildCodecs(result.error)) {
        result.status = ArchiveStatus::CorruptManifest;
        return result;
    }

    obs::crash::hit("archive.open.pool");
    std::ifstream pool_in(poolPath(dir), std::ios::binary);
    if (!pool_in) {
        result.status = ArchiveStatus::CorruptPool;
        result.error = "no pool file at " + poolPath(dir);
        return result;
    }
    std::vector<FastaRecord> records;
    try {
        records = readFasta(pool_in);
    } catch (const std::exception &e) {
        result.status = ArchiveStatus::CorruptPool;
        result.error = std::string("unreadable pool file: ") + e.what();
        return result;
    }

    const std::uint32_t next_pair = archive.manifest_.nextPairId();
    std::vector<std::size_t> per_pair(next_pair, 0);
    archive.pool_.reserve(records.size());
    archive.pool_pairs_.reserve(records.size());
    for (const FastaRecord &record : records) {
        const auto pair_id = tryParsePoolRecordPair(record.id);
        if (!pair_id) {
            result.status = ArchiveStatus::CorruptPool;
            result.error = "pool record with unparsable pair id: " +
                           record.id;
            return result;
        }
        // Records under pair ids the manifest does not reference are
        // orphans of an interrupted save (pool committed, manifest
        // not): drop them — the next save rewrites the pool without
        // them — instead of refusing to open the archive.
        if (*pair_id >= next_pair)
            continue;
        per_pair[*pair_id] += 1;
        archive.pool_.push_back(record.sequence);
        archive.pool_pairs_.push_back(*pair_id);
    }
    for (const ObjectEntry &object : archive.manifest_.objects) {
        for (const ShardEntry &shard : object.shards) {
            if (per_pair[shard.pair_id] != shard.strands) {
                result.status = ArchiveStatus::CorruptPool;
                result.error = "pool/manifest mismatch for object '" +
                               object.name + "' pair " +
                               std::to_string(shard.pair_id) +
                               ": manifest says " +
                               std::to_string(shard.strands) +
                               " strands, pool has " +
                               std::to_string(per_pair[shard.pair_id]);
                return result;
            }
        }
    }

    result.archive = std::move(archive);
    return result;
}

bool
Archive::save(std::string &error)
{
    // The pool's pair-0 section mirrors the manifest; rebuild it so the
    // DNA copy always matches what manifest.json says.
    std::vector<Strand> kept;
    std::vector<std::uint32_t> kept_pairs;
    kept.reserve(pool_.size());
    kept_pairs.reserve(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (pool_pairs_[i] != kManifestPairId) {
            kept.push_back(pool_[i]);
            kept_pairs.push_back(pool_pairs_[i]);
        }
    }

    if (!ensurePairs(
            std::max<std::size_t>(1, manifest_.nextPairId()), error))
        return false;

    const std::string manifest_text = manifestJson(manifest_);
    std::vector<Strand> manifest_strands;
    try {
        manifest_strands = encoder_->encode(stringToBytes(manifest_text));
    } catch (const std::exception &e) {
        error = std::string("manifest DNA encoding failed: ") + e.what();
        return false;
    }
    const PrimerPair manifest_pair =
        publishedLibrary().pairFor(kManifestPairId);
    for (Strand &payload : manifest_strands)
        payload = attachPrimers(manifest_pair, payload);

    std::vector<FastaRecord> records;
    records.reserve(kept.size() + manifest_strands.size());
    for (std::size_t i = 0; i < kept.size(); ++i)
        records.push_back({poolRecordId(records.size(), kept_pairs[i]),
                           kept[i]});
    for (const Strand &molecule : manifest_strands)
        records.push_back(
            {poolRecordId(records.size(), kManifestPairId), molecule});

    std::ostringstream pool_text;
    writeFasta(pool_text, records);

    // Both files go through the atomic temp+rename writer, and the
    // manifest rename is the commit point: the pool lands first, so a
    // crash (or failed write) between the two leaves a new pool next to
    // the old manifest — a state open() accepts by dropping pool
    // records under pair ids the manifest does not reference.  Writing
    // the manifest first would brick the archive instead (manifest
    // promising strands the old pool lacks).  The named crash points
    // let the chaos harness and fsck tests kill the process at each
    // window of this protocol (obs.write.* points cover mid-write).
    obs::crash::hit("archive.save.pool");
    if (!obs::writeTextFile(poolPath(dir_), pool_text.str())) {
        error = "cannot write " + poolPath(dir_);
        return false;
    }
    obs::crash::hit("archive.save.between");
    if (!obs::writeTextFile(manifestPath(dir_), manifest_text)) {
        error = "cannot write " + manifestPath(dir_);
        return false;
    }
    obs::crash::hit("archive.save.commit");

    pool_ = std::move(kept);
    pool_pairs_ = std::move(kept_pairs);
    for (Strand &molecule : manifest_strands) {
        pool_.push_back(std::move(molecule));
        pool_pairs_.push_back(kManifestPairId);
    }
    return true;
}

PutResult
Archive::put(const std::string &name, const std::vector<std::uint8_t> &data,
             std::size_t num_threads)
{
    obs::Span span("archive/put");
    obs::StageTagScope tag("archive.put");
    PutResult result;
    if (name.empty()) {
        result.status = ArchiveStatus::InvalidArgument;
        result.error = "object name must not be empty";
        return result;
    }
    if (data.empty()) {
        result.status = ArchiveStatus::InvalidArgument;
        result.error = "object data must not be empty";
        return result;
    }
    if (manifest_.findObject(name) != nullptr) {
        result.status = ArchiveStatus::AlreadyExists;
        result.error = "object '" + name + "' already stored";
        return result;
    }

    const std::uint64_t max_shard = manifest_.params.max_shard_bytes;
    const std::size_t num_shards = static_cast<std::size_t>(
        (data.size() + max_shard - 1) / max_shard);
    const std::uint32_t first_pair = manifest_.nextPairId();
    if (!ensurePairs(static_cast<std::size_t>(first_pair) + num_shards,
                     result.error)) {
        result.status = ArchiveStatus::EncodeFailed;
        return result;
    }

    ObjectEntry object;
    object.name = name;
    object.id = manifest_.nextObjectId();
    object.size_bytes = data.size();
    object.crc32_value = crc32({data.data(), data.size()});
    object.shards.resize(num_shards);

    // Each shard is an independent codec run; encode them as a batch
    // over the thread pool (encoder is const and thus shareable).
    std::vector<std::vector<Strand>> tagged(num_shards);
    std::vector<std::string> failures(num_shards);
    const auto encodeShard = [&](std::size_t s) {
        const std::size_t begin =
            s * static_cast<std::size_t>(max_shard);
        const std::size_t end =
            std::min(data.size(), begin + static_cast<std::size_t>(max_shard));
        const std::vector<std::uint8_t> shard_bytes(
            data.begin() + static_cast<std::ptrdiff_t>(begin),
            data.begin() + static_cast<std::ptrdiff_t>(end));
        const std::uint32_t pair_id =
            first_pair + static_cast<std::uint32_t>(s);
        try {
            std::vector<Strand> strands = encoder_->encode(shard_bytes);
            const PrimerPair pair = publishedLibrary().pairFor(pair_id);
            for (Strand &payload : strands)
                payload = attachPrimers(pair, payload);

            ShardEntry &entry = object.shards[s];
            entry.pair_id = pair_id;
            entry.size_bytes = shard_bytes.size();
            entry.units = static_cast<std::uint32_t>(
                encoder_->unitsForSize(shard_bytes.size()));
            entry.strands = static_cast<std::uint32_t>(strands.size());
            tagged[s] = std::move(strands);
        } catch (const std::exception &e) {
            failures[s] = e.what();
        }
    };

    try {
        forEachIndex(poolFor(num_threads, num_shards).get(), num_shards,
                     encodeShard);
    } catch (const std::exception &e) {
        result.status = ArchiveStatus::EncodeFailed;
        result.error = std::string("shard encode batch failed: ") + e.what();
        return result;
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
        if (!failures[s].empty()) {
            result.status = ArchiveStatus::EncodeFailed;
            result.error = "shard " + std::to_string(s) +
                           " encode failed: " + failures[s];
            return result;
        }
    }

    // Merge into the pool; roll everything back if persisting fails so
    // the in-memory state never diverges from disk.
    const std::size_t pool_before = pool_.size();
    for (std::size_t s = 0; s < num_shards; ++s) {
        const std::uint32_t pair_id = object.shards[s].pair_id;
        for (Strand &molecule : tagged[s]) {
            pool_.push_back(std::move(molecule));
            pool_pairs_.push_back(pair_id);
        }
    }
    manifest_.objects.push_back(object);

    if (!save(result.error)) {
        manifest_.objects.pop_back();
        pool_.resize(pool_before);
        pool_pairs_.resize(pool_before);
        result.status = ArchiveStatus::IoError;
        return result;
    }

    result.object_id = object.id;
    result.shards = num_shards;
    for (const ShardEntry &shard : object.shards) {
        result.strands += shard.strands;
        obs::metrics()
            .histogram("archive.shard_size_bytes", shardSizeBuckets())
            .observe(static_cast<double>(shard.size_bytes));
    }
    obs::metrics().counter("archive.objects_total").add(1);
    obs::metrics().counter("archive.shards_total").add(num_shards);
    obs::metrics().counter("archive.put_bytes_total").add(data.size());
    return result;
}

std::vector<std::uint8_t>
Archive::decodeShard(const ShardEntry &shard, const RetrievalConfig &config,
                     ShardOutcome &outcome) const
{
    obs::Span span("archive/shard_decode");
    obs::StageTagScope tag("archive.shard_decode");
    outcome.pair_id = shard.pair_id;
    try {
        const PrimerPair pair = publishedLibrary().pairFor(shard.pair_id);
        Rng rng(shardSeed(config.seed, shard.pair_id));

        // PCR selection: pull this shard's molecules out of the mixed
        // pool (plus off-target leakage when configured).
        DnaPool pool;
        std::vector<Strand> mine;
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            if (pool_pairs_[i] == shard.pair_id) {
                mine.push_back(pool_[i]);
            }
        }
        pool.addTagged(pair, mine);
        if (config.pcr_off_target > 0.0) {
            // Off-target molecules need their own tags so amplify() can
            // tell them apart from the shard's own product.
            for (std::size_t i = 0; i < pool_.size(); ++i) {
                if (pool_pairs_[i] != shard.pair_id) {
                    pool.addTagged(publishedLibrary().pairFor(pool_pairs_[i]),
                                   {pool_[i]});
                }
            }
        }
        const PcrProduct product =
            amplify(pool, pair, rng, {config.pcr_off_target});

        // Simulated sequencing of the amplified product.
        const CoverageModel coverage(config.coverage,
                                     CoverageDistribution::Poisson);
        SequencingRun run;
        if (config.channel == RetrievalChannel::Wetlab) {
            VirtualWetlabConfig wcfg;
            wcfg.base_error_rate = config.error_rate;
            const VirtualWetlabChannel channel(wcfg);
            run = simulateSequencing(product.molecules, channel, coverage,
                                     rng);
        } else {
            const IidChannel channel(
                IidChannelConfig::fromTotalErrorRate(config.error_rate));
            run = simulateSequencing(product.molecules, channel, coverage,
                                     rng);
        }

        // Sequencers emit both orientations; flip half the reads so the
        // preprocessing stage earns its keep.
        for (std::size_t i = 1; i < run.reads.size(); i += 2)
            run.reads[i] = strand::reverseComplement(run.reads[i]);

        const PreprocessResult prep = preprocessReads(
            run.reads, pair, {config.primer_max_edit});

        // Retrieval half of the pipeline, confined to this shard.
        RashtchianClustererConfig ccfg =
            RashtchianClustererConfig::forErrorRate(
                config.error_rate, manifest_.params.codec.strandLength());
        ccfg.seed = shardSeed(config.seed ^ 0xc105ULL, shard.pair_id);
        RashtchianClusterer clusterer(ccfg);
        const NwConsensusReconstructor reconstructor;
        const DoubleSidedBmaReconstructor fallback;

        PipelineModules mods;
        mods.encoder = encoder_.get();
        mods.decoder = decoder_.get();
        mods.clusterer = &clusterer;
        mods.reconstructor = &reconstructor;
        mods.fallback_reconstructor = &fallback;
        mods.fault_injector = config.fault_injector;

        PipelineConfig pcfg;
        pcfg.coverage = coverage;
        pcfg.num_threads = 1; // Parallelism lives at the shard level.
        pcfg.seed = shardSeed(config.seed ^ 0x5eedULL, shard.pair_id);
        pcfg.min_cluster_size = config.min_cluster_size;
        pcfg.max_decode_retries = config.max_decode_retries;

        Pipeline pipeline(mods, pcfg);
        PipelineResult result = pipeline.runFromReads(
            prep.reads, manifest_.params.codec.strandLength(), shard.units);

        outcome.stages = result.status;
        outcome.reads = result.reads;
        outcome.clusters = result.clusters;
        outcome.errors = std::move(result.errors);
        // size_bytes == 0 means "accept whatever the codec header says"
        // (used for the DNA manifest copy, whose size is not recorded).
        outcome.ok = result.report.ok &&
                     (shard.size_bytes == 0 ||
                      result.report.data.size() == shard.size_bytes);
        if (!outcome.ok && outcome.errors.empty()) {
            outcome.errors.push_back(
                {"decoding", "shard payload did not decode cleanly"});
        }
        return outcome.ok ? std::move(result.report.data)
                          : std::vector<std::uint8_t>{};
    } catch (const std::exception &e) {
        outcome.ok = false;
        outcome.errors.push_back({"archive", e.what()});
        return {};
    }
}

GetResult
Archive::get(const std::string &name, const RetrievalConfig &config) const
{
    return getMany({name}, config)[0];
}

std::vector<GetResult>
Archive::getMany(const std::vector<std::string> &names,
                 const RetrievalConfig &config) const
{
    obs::Span span("archive/get_many");
    obs::StageTagScope tag("archive.get_many");
    std::vector<GetResult> results(names.size());
    if (names.empty())
        return results;

    std::string pair_error;
    const bool pairs_ok = ensurePairs(manifest_.nextPairId(), pair_error);

    // Flatten every requested object's shards into one work list so a
    // multi-object batch saturates the pool even when each object has
    // only a shard or two.
    struct Work
    {
        std::size_t object; //!< Index into names/results.
        std::size_t shard;  //!< Shard index within that object.
    };
    std::vector<const ObjectEntry *> objects(names.size(), nullptr);
    std::vector<std::vector<std::vector<std::uint8_t>>> payloads(
        names.size());
    std::vector<Work> work;
    for (std::size_t i = 0; i < names.size(); ++i) {
        GetResult &res = results[i];
        const ObjectEntry *object = manifest_.findObject(names[i]);
        if (object == nullptr) {
            res.status = ArchiveStatus::NotFound;
            res.error = "no object named '" + names[i] + "'";
            continue;
        }
        if (object->shards.empty()) {
            res.status = ArchiveStatus::CorruptManifest;
            res.error = "object '" + names[i] + "' has no shards";
            continue;
        }
        if (!pairs_ok) {
            res.status = ArchiveStatus::CorruptManifest;
            res.error = pair_error;
            continue;
        }
        objects[i] = object;
        res.shards.resize(object->shards.size());
        payloads[i].resize(object->shards.size());
        for (std::size_t s = 0; s < object->shards.size(); ++s)
            work.push_back({i, s});
    }

    const auto decode_one = [&](std::size_t w) {
        const Work &item = work[w];
        payloads[item.object][item.shard] =
            decodeShard(objects[item.object]->shards[item.shard], config,
                        results[item.object].shards[item.shard]);
    };
    // A fault injector is stateful (own RNG + counters), so its runs
    // must stay serial to remain deterministic.
    const std::size_t threads =
        config.fault_injector == nullptr ? config.num_threads : 1;
    try {
        forEachIndex(poolFor(threads, work.size()).get(), work.size(),
                     decode_one);
    } catch (const std::exception &e) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (objects[i] == nullptr)
                continue;
            results[i].status = ArchiveStatus::DecodeFailed;
            results[i].error =
                std::string("shard decode batch failed: ") + e.what();
        }
        return results;
    }

    std::size_t shards_decoded = 0;
    std::size_t objects_fetched = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (objects[i] == nullptr)
            continue;
        ++objects_fetched;
        GetResult &res = results[i];
        std::string failed_list;
        std::size_t decoded = 0;
        for (std::size_t s = 0; s < res.shards.size(); ++s) {
            if (res.shards[s].ok) {
                ++decoded;
            } else {
                if (!failed_list.empty())
                    failed_list += ", ";
                failed_list += std::to_string(s);
            }
        }
        shards_decoded += decoded;
        if (decoded != res.shards.size()) {
            res.status = ArchiveStatus::DecodeFailed;
            res.error = "object '" + names[i] + "': shard(s) " +
                        failed_list + " failed to decode";
            continue;
        }
        for (std::vector<std::uint8_t> &payload : payloads[i])
            res.data.insert(res.data.end(), payload.begin(),
                            payload.end());
        if (res.data.size() != objects[i]->size_bytes ||
            crc32({res.data.data(), res.data.size()}) !=
                objects[i]->crc32_value) {
            res.status = ArchiveStatus::DecodeFailed;
            res.error = "object '" + names[i] +
                        "': reassembled payload failed CRC check";
            res.data.clear();
        }
    }
    obs::metrics()
        .counter("archive.shards_decoded_total")
        .add(shards_decoded);
    obs::metrics().counter("archive.gets_total").add(objects_fetched);
    obs::metrics().counter("archive.get_batches_total").add(1);
    return results;
}

std::string
lsJson(const Archive &archive)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("dnastore.archive_ls");
    json.key("schema_version");
    json.value(static_cast<std::uint64_t>(obs::kSchemaVersion));
    json.key("num_objects");
    json.value(static_cast<std::uint64_t>(archive.objects().size()));
    json.key("pool_strands");
    json.value(static_cast<std::uint64_t>(archive.poolSize()));
    json.key("objects");
    json.beginArray();
    for (const ObjectEntry &object : archive.objects()) {
        json.beginObject();
        json.key("name");
        json.value(object.name);
        json.key("id");
        json.value(static_cast<std::uint64_t>(object.id));
        json.key("size_bytes");
        json.value(static_cast<std::uint64_t>(object.size_bytes));
        json.key("crc32");
        json.value(static_cast<std::uint64_t>(object.crc32_value));
        json.key("shards");
        json.value(static_cast<std::uint64_t>(object.shards.size()));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.text();
}

std::string
statJson(const ObjectEntry &object)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("dnastore.archive_stat");
    json.key("schema_version");
    json.value(static_cast<std::uint64_t>(obs::kSchemaVersion));
    json.key("name");
    json.value(object.name);
    json.key("id");
    json.value(static_cast<std::uint64_t>(object.id));
    json.key("size_bytes");
    json.value(static_cast<std::uint64_t>(object.size_bytes));
    json.key("crc32");
    json.value(static_cast<std::uint64_t>(object.crc32_value));
    json.key("shards");
    json.beginArray();
    for (const ShardEntry &shard : object.shards) {
        json.beginObject();
        json.key("pair_id");
        json.value(static_cast<std::uint64_t>(shard.pair_id));
        json.key("size_bytes");
        json.value(static_cast<std::uint64_t>(shard.size_bytes));
        json.key("strands");
        json.value(static_cast<std::uint64_t>(shard.strands));
        json.key("units");
        json.value(static_cast<std::uint64_t>(shard.units));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.text();
}

ManifestParseResult
Archive::decodeManifestFromDna(const RetrievalConfig &config) const
{
    ManifestParseResult parsed;

    std::size_t manifest_molecules = 0;
    for (const std::uint32_t pair_id : pool_pairs_)
        if (pair_id == kManifestPairId)
            ++manifest_molecules;
    if (manifest_molecules == 0) {
        parsed.error = "pool holds no manifest molecules (pair 0)";
        return parsed;
    }
    if (!ensurePairs(manifest_.nextPairId(), parsed.error))
        return parsed;

    // The manifest shard's size and unit count are not recorded anywhere
    // (the manifest cannot describe itself before it is written), so the
    // decode infers units from indices and accepts the codec header's
    // payload length; schema + CRC validation happens in the parser.
    ShardEntry manifest_shard;
    manifest_shard.pair_id = kManifestPairId;
    manifest_shard.size_bytes = 0;
    manifest_shard.units = 0;

    ShardOutcome outcome;
    const std::vector<std::uint8_t> payload =
        decodeShard(manifest_shard, config, outcome);
    if (payload.empty()) {
        parsed.error = "DNA manifest copy failed to decode";
        for (const PipelineError &err : outcome.errors)
            parsed.error += "; " + err.stage + ": " + err.message;
        return parsed;
    }
    const std::string text(payload.begin(), payload.end());
    return tryParseManifest(text);
}

} // namespace dnastore::archive
