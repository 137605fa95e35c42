#include "archive/archive.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "util/random.hh"

using namespace dnastore;
using namespace dnastore::archive;

namespace
{

std::vector<std::uint8_t>
patternBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

ArchiveParams
smallParams()
{
    ArchiveParams params;
    params.codec.payload_nt = 120;
    params.codec.index_nt = 12;
    params.codec.rs_n = 60;
    params.codec.rs_k = 40;
    params.max_shard_bytes = 256;
    return params;
}

class ArchiveTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("archive_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir() const { return dir_.string(); }

    std::filesystem::path dir_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
spew(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** Split a FASTA file into whole records (">id\nseq..." blocks). */
std::vector<std::string>
fastaRecords(const std::string &text)
{
    std::vector<std::string> records;
    std::size_t at = text.find('>');
    while (at != std::string::npos) {
        const std::size_t next = text.find('>', at + 1);
        records.push_back(text.substr(
            at, next == std::string::npos ? next : next - at));
        at = next;
    }
    return records;
}

std::string
joinRecords(const std::vector<std::string> &records)
{
    std::string out;
    for (const std::string &record : records)
        out += record;
    return out;
}

} // namespace

TEST_F(ArchiveTest, EndToEndMultiObjectWetlabRoundTrip)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    Archive &tube = *created.archive;

    // Three objects; "large" spans >= 4 shards (1100 / 256 -> 5).
    const auto large = patternBytes(1100, 11);
    const auto medium = patternBytes(300, 22);
    const std::string text = "small text object stored in nucleotides";
    const std::vector<std::uint8_t> small(text.begin(), text.end());

    const auto put_large = tube.put("large", large, /*num_threads=*/4);
    ASSERT_TRUE(put_large.ok()) << put_large.error;
    EXPECT_GE(put_large.shards, 4u);
    const auto put_medium = tube.put("medium", medium);
    ASSERT_TRUE(put_medium.ok()) << put_medium.error;
    const auto put_small = tube.put("small", small);
    ASSERT_TRUE(put_small.ok()) << put_small.error;

    EXPECT_EQ(tube.objects().size(), 3u);
    ASSERT_NE(tube.stat("large"), nullptr);
    EXPECT_EQ(tube.stat("large")->size_bytes, large.size());

    // Retrieval through the virtual-wetlab channel over the mixed pool.
    RetrievalConfig retrieval;
    retrieval.channel = RetrievalChannel::Wetlab;
    retrieval.error_rate = 0.03;
    retrieval.coverage = 14.0;
    retrieval.seed = 99;
    retrieval.num_threads = 4;

    const GetResult got_large = tube.get("large", retrieval);
    ASSERT_TRUE(got_large.ok()) << got_large.error;
    EXPECT_EQ(got_large.data, large);
    EXPECT_EQ(got_large.shards.size(), put_large.shards);
    for (const ShardOutcome &shard : got_large.shards) {
        EXPECT_TRUE(shard.ok);
        EXPECT_GT(shard.reads, 0u);
        EXPECT_NE(shard.stages.decoding, StageStatus::Skipped);
    }

    const GetResult got_small = tube.get("small", retrieval);
    ASSERT_TRUE(got_small.ok()) << got_small.error;
    EXPECT_EQ(got_small.data, small);

    // Nonexistent name: clean failure, no throw, empty payload.
    const GetResult missing = tube.get("no-such-object", retrieval);
    EXPECT_EQ(missing.status, ArchiveStatus::NotFound);
    EXPECT_TRUE(missing.data.empty());
    EXPECT_FALSE(missing.error.empty());
}

TEST_F(ArchiveTest, ReopenedArchiveRoundTrips)
{
    const auto payload = patternBytes(600, 33);
    {
        auto created = Archive::create(dir(), smallParams());
        ASSERT_TRUE(created.ok()) << created.error;
        ASSERT_TRUE(created.archive->put("obj", payload).ok());
    }

    auto reopened = Archive::open(dir());
    ASSERT_TRUE(reopened.ok()) << reopened.error;
    EXPECT_EQ(reopened.archive->objects().size(), 1u);

    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    const GetResult got = reopened.archive->get("obj", retrieval);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.data, payload);
}

TEST_F(ArchiveTest, ManifestIsSelfDescribingInDna)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    ASSERT_TRUE(created.archive->put("a", patternBytes(200, 1)).ok());
    ASSERT_TRUE(created.archive->put("b", patternBytes(500, 2)).ok());

    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    const ManifestParseResult decoded =
        created.archive->decodeManifestFromDna(retrieval);
    ASSERT_TRUE(decoded.manifest.has_value()) << decoded.error;
    EXPECT_EQ(decoded.manifest->objects.size(), 2u);
    EXPECT_NE(decoded.manifest->findObject("b"), nullptr);
}

TEST_F(ArchiveTest, RejectsBadArguments)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    Archive &tube = *created.archive;
    const auto payload = patternBytes(100, 44);
    ASSERT_TRUE(tube.put("obj", payload).ok());

    EXPECT_EQ(tube.put("obj", payload).status,
              ArchiveStatus::AlreadyExists);
    EXPECT_EQ(tube.put("", payload).status,
              ArchiveStatus::InvalidArgument);
    EXPECT_EQ(tube.put("empty", {}).status,
              ArchiveStatus::InvalidArgument);

    // Creating over an existing archive is refused, too.
    EXPECT_EQ(Archive::create(dir(), smallParams()).status,
              ArchiveStatus::AlreadyExists);

    // Opening a directory that is not an archive is NotFound.
    EXPECT_EQ(Archive::open(dir() + "_nope").status,
              ArchiveStatus::NotFound);
}

TEST_F(ArchiveTest, DetectsOnDiskCorruption)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    ASSERT_TRUE(created.archive->put("obj", patternBytes(100, 5)).ok());

    // Tamper with the manifest file.
    const std::string manifest_path = dir() + "/manifest.json";
    {
        std::ofstream out(manifest_path, std::ios::binary);
        out << "{\"schema\":\"dnastore.archive_manifest\"}";
    }
    EXPECT_EQ(Archive::open(dir()).status,
              ArchiveStatus::CorruptManifest);
}

TEST_F(ArchiveTest, DetectsPoolManifestMismatch)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    ASSERT_TRUE(created.archive->put("obj", patternBytes(100, 6)).ok());

    // Drop the pool file entirely: manifest promises strands that are
    // no longer there.
    std::filesystem::remove(dir() + "/pool.fasta");
    const auto reopened = Archive::open(dir());
    EXPECT_EQ(reopened.status, ArchiveStatus::CorruptPool);
}

TEST(ArchiveStatus, NamesAreStableAndUnique)
{
    const ArchiveStatus all[] = {
        ArchiveStatus::Ok,           ArchiveStatus::NotFound,
        ArchiveStatus::AlreadyExists, ArchiveStatus::InvalidArgument,
        ArchiveStatus::IoError,      ArchiveStatus::CorruptManifest,
        ArchiveStatus::CorruptPool,  ArchiveStatus::EncodeFailed,
        ArchiveStatus::DecodeFailed,
    };
    std::vector<std::string> names;
    for (const ArchiveStatus status : all) {
        const std::string name = archiveStatusName(status);
        EXPECT_FALSE(name.empty());
        for (const std::string &seen : names)
            EXPECT_NE(name, seen);
        names.push_back(name);
    }
    EXPECT_EQ(names.front(), "ok");
}

TEST_F(ArchiveTest, CreateRejectsInvalidParameters)
{
    EXPECT_EQ(Archive::create("", smallParams()).status,
              ArchiveStatus::InvalidArgument);

    ArchiveParams no_shards = smallParams();
    no_shards.max_shard_bytes = 0;
    EXPECT_EQ(Archive::create(dir(), no_shards).status,
              ArchiveStatus::InvalidArgument);

    // Degenerate codec geometry is refused up front.
    ArchiveParams bad_codec = smallParams();
    bad_codec.codec.rs_n = 40;
    bad_codec.codec.rs_k = 60;
    const auto refused = Archive::create(dir(), bad_codec);
    EXPECT_EQ(refused.status, ArchiveStatus::InvalidArgument);
    EXPECT_NE(refused.error.find("codec"), std::string::npos);

    // A path whose parent is a regular file cannot become a directory.
    spew(dir() + "_file", "not a directory");
    EXPECT_EQ(Archive::create(dir() + "_file/sub", smallParams()).status,
              ArchiveStatus::IoError);
    std::filesystem::remove(dir() + "_file");
}

TEST_F(ArchiveTest, OpenRejectsMangledPoolRecords)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    ASSERT_TRUE(created.archive->put("obj", patternBytes(100, 8)).ok());
    const std::string pool_path = dir() + "/pool.fasta";
    const std::string pool = slurp(pool_path);

    // Record ids that no longer parse back to a known pair id — or,
    // for the last case, retag an object's molecule under an
    // unallocated pair, which the per-pair strand accounting catches.
    const char *mangled_ids[] = {
        "m0 nopair",           // marker missing entirely
        "m0 pair=12x",         // trailing junk in the digits
        "m0 pair=8589934592",  // fits unsigned long long, exceeds 2^32
        "m0 pair=99999999999999999999999999", // overflows unsigned long long
        "m0 pair=7",           // object strand moved to unallocated pair
    };
    for (const char *id : mangled_ids) {
        std::string mangled = pool;
        const std::size_t at = mangled.find('>');
        const std::size_t eol = mangled.find('\n', at);
        mangled.replace(at + 1, eol - at - 1, id);
        spew(pool_path, mangled);
        const auto reopened = Archive::open(dir());
        EXPECT_EQ(reopened.status, ArchiveStatus::CorruptPool) << id;
        EXPECT_NE(reopened.error.find("pair"), std::string::npos) << id;
    }

    // Dropping one of the object's molecules (the first record; pair-0
    // manifest copies sit at the end) breaks the strand accounting.
    auto records = fastaRecords(pool);
    ASSERT_GT(records.size(), 1u);
    records.erase(records.begin());
    spew(pool_path, joinRecords(records));
    const auto short_pool = Archive::open(dir());
    EXPECT_EQ(short_pool.status, ArchiveStatus::CorruptPool);
    EXPECT_NE(short_pool.error.find("mismatch"), std::string::npos)
        << short_pool.error;
}

TEST_F(ArchiveTest, OpenRejectsHandEditedPairIds)
{
    // A hand-edited manifest can carry a recomputed (valid) CRC yet
    // reference a pair id outside the contiguous block put() allocates;
    // open() must reject it instead of indexing past per-pair tables.
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    ASSERT_TRUE(created.archive->put("obj", patternBytes(100, 15)).ok());

    ArchiveManifest edited = created.archive->manifest();
    ASSERT_EQ(edited.objects.size(), 1u);
    ASSERT_EQ(edited.objects[0].shards.size(), 1u);
    edited.objects[0].shards[0].pair_id = 7;
    // manifestJson recomputes the payload CRC, exactly as a careful
    // hand-editor would.
    spew(dir() + "/manifest.json", manifestJson(edited));

    const auto reopened = Archive::open(dir());
    EXPECT_EQ(reopened.status, ArchiveStatus::CorruptManifest);
    EXPECT_NE(reopened.error.find("out of range"), std::string::npos)
        << reopened.error;

    // A duplicated pair id is rejected the same way.
    ArchiveManifest duplicated = created.archive->manifest();
    ObjectEntry clone = duplicated.objects[0];
    clone.name = "clone";
    clone.id = 1;
    duplicated.objects.push_back(clone);
    spew(dir() + "/manifest.json", manifestJson(duplicated));
    const auto dup_open = Archive::open(dir());
    EXPECT_EQ(dup_open.status, ArchiveStatus::CorruptManifest);
    EXPECT_NE(dup_open.error.find("addresses two shards"),
              std::string::npos)
        << dup_open.error;
}

TEST_F(ArchiveTest, OpenToleratesPoolAheadOfManifest)
{
    // A crash between save()'s two renames (pool committed, manifest
    // not) leaves a new pool next to the old manifest.  open() must
    // accept that state — dropping the orphan records — rather than
    // brick the archive.
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    Archive &tube = *created.archive;
    const auto first = patternBytes(100, 16);
    ASSERT_TRUE(tube.put("first", first).ok());
    const std::string old_manifest = slurp(dir() + "/manifest.json");
    ASSERT_TRUE(tube.put("second", patternBytes(300, 17)).ok());
    spew(dir() + "/manifest.json", old_manifest);

    auto reopened = Archive::open(dir());
    ASSERT_TRUE(reopened.ok()) << reopened.error;
    EXPECT_EQ(reopened.archive->objects().size(), 1u);
    EXPECT_EQ(reopened.archive->stat("second"), nullptr);

    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    const GetResult got = reopened.archive->get("first", retrieval);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.data, first);

    // Re-storing the lost object reuses the orphaned pair ids cleanly.
    const auto second = patternBytes(300, 17);
    ASSERT_TRUE(reopened.archive->put("second", second).ok());
    const GetResult got_second = reopened.archive->get("second", retrieval);
    ASSERT_TRUE(got_second.ok()) << got_second.error;
    EXPECT_EQ(got_second.data, second);
}

TEST_F(ArchiveTest, ConcurrentConstGetsAgree)
{
    // Two threads retrieving from one freshly opened Archive both
    // trigger the lazy primer-library design from a const method; the
    // internal lock must serialise it (TSan-visible otherwise).
    const auto payload = patternBytes(400, 18);
    {
        auto created = Archive::create(dir(), smallParams());
        ASSERT_TRUE(created.ok()) << created.error;
        ASSERT_TRUE(created.archive->put("obj", payload).ok());
    }
    auto reopened = Archive::open(dir());
    ASSERT_TRUE(reopened.ok()) << reopened.error;
    const Archive &tube = *reopened.archive;

    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    GetResult results[2];
    std::thread a([&] { results[0] = tube.get("obj", retrieval); });
    std::thread b([&] { results[1] = tube.get("obj", retrieval); });
    a.join();
    b.join();
    for (const GetResult &got : results) {
        ASSERT_TRUE(got.ok()) << got.error;
        EXPECT_EQ(got.data, payload);
    }
}

TEST_F(ArchiveTest, OpenRejectsManifestWithBadCodec)
{
    // A manifest can be schema-valid yet describe an impossible codec;
    // open() must refuse it instead of constructing broken modules.
    ArchiveManifest bad;
    bad.params = smallParams();
    bad.params.codec.rs_n = 40;
    bad.params.codec.rs_k = 60;
    std::filesystem::create_directories(dir());
    spew(dir() + "/manifest.json", manifestJson(bad));
    spew(dir() + "/pool.fasta", "");
    const auto opened = Archive::open(dir());
    EXPECT_EQ(opened.status, ArchiveStatus::CorruptManifest);
    EXPECT_NE(opened.error.find("codec"), std::string::npos)
        << opened.error;
}

TEST_F(ArchiveTest, FailedSaveRollsBackAndRecovers)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    Archive &tube = *created.archive;
    ASSERT_TRUE(tube.put("first", patternBytes(100, 9)).ok());
    const std::size_t pool_before = tube.poolSize();

    // The atomic writer cannot rename over a directory, so turning each
    // target into one simulates an unwritable destination.
    const std::string payload_name = "second";
    const auto payload = patternBytes(120, 10);
    for (const char *victim : {"/manifest.json", "/pool.fasta"}) {
        const std::string path = dir() + victim;
        const std::string saved = slurp(path);
        std::filesystem::remove(path);
        std::filesystem::create_directory(path);
        const auto failed = tube.put(payload_name, payload);
        EXPECT_EQ(failed.status, ArchiveStatus::IoError) << victim;
        // The in-memory archive rolled back: nothing half-stored.
        EXPECT_EQ(tube.objects().size(), 1u);
        EXPECT_EQ(tube.stat(payload_name), nullptr);
        EXPECT_EQ(tube.poolSize(), pool_before);
        std::filesystem::remove_all(path);
        spew(path, saved);
    }

    // With the obstruction gone the same put succeeds cleanly.
    const auto ok = tube.put(payload_name, payload);
    ASSERT_TRUE(ok.ok()) << ok.error;
    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    const GetResult got = tube.get(payload_name, retrieval);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.data, payload);
}

TEST_F(ArchiveTest, ToleratesPcrOffTargetContamination)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    const auto a = patternBytes(150, 12);
    const auto b = patternBytes(150, 13);
    ASSERT_TRUE(created.archive->put("a", a).ok());
    ASSERT_TRUE(created.archive->put("b", b).ok());

    // Off-target leakage drags other objects' molecules into the PCR
    // product; primer preprocessing must still fence them out.
    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    retrieval.pcr_off_target = 0.05;
    const GetResult got = created.archive->get("a", retrieval);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.data, a);
}

TEST_F(ArchiveTest, DnaManifestDecodeFailsCleanly)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    ASSERT_TRUE(created.archive->put("obj", patternBytes(80, 14)).ok());
    const std::string pool_path = dir() + "/pool.fasta";
    const std::string pool = slurp(pool_path);

    // Strip the pair-0 section: the archive still opens (objects are
    // intact) but the DNA manifest copy is gone.
    std::vector<std::string> kept;
    for (const std::string &record : fastaRecords(pool))
        if (record.find("pair=0\n") == std::string::npos)
            kept.push_back(record);
    spew(pool_path, joinRecords(kept));
    auto missing = Archive::open(dir());
    ASSERT_TRUE(missing.ok()) << missing.error;
    RetrievalConfig retrieval;
    retrieval.error_rate = 0.02;
    const auto no_copy = missing.archive->decodeManifestFromDna(retrieval);
    EXPECT_FALSE(no_copy.manifest.has_value());
    EXPECT_NE(no_copy.error.find("manifest molecules"), std::string::npos)
        << no_copy.error;

    // Garbage in the pair-0 section: decode fails, error says why.
    std::string garbled = joinRecords(kept);
    std::size_t index = kept.size();
    for (int i = 0; i < 3; ++i)
        garbled += ">m" + std::to_string(index++) + " pair=0\nACGTACGT\n";
    spew(pool_path, garbled);
    auto corrupt = Archive::open(dir());
    ASSERT_TRUE(corrupt.ok()) << corrupt.error;
    const auto bad_copy = corrupt.archive->decodeManifestFromDna(retrieval);
    EXPECT_FALSE(bad_copy.manifest.has_value());
    EXPECT_NE(bad_copy.error.find("failed to decode"), std::string::npos)
        << bad_copy.error;
}

/** Field-by-field ShardOutcome comparison (errors aside). */
void
expectSameShards(const GetResult &a, const GetResult &b,
                 const std::string &label)
{
    ASSERT_EQ(a.shards.size(), b.shards.size()) << label;
    const auto statuses = [](const StageStatusSet &s) {
        return std::vector<StageStatus>{s.encoding, s.simulation,
                                        s.clustering, s.reconstruction,
                                        s.decoding};
    };
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const ShardOutcome &x = a.shards[s];
        const ShardOutcome &y = b.shards[s];
        EXPECT_EQ(x.pair_id, y.pair_id) << label << " shard " << s;
        EXPECT_EQ(x.ok, y.ok) << label << " shard " << s;
        EXPECT_EQ(x.reads, y.reads) << label << " shard " << s;
        EXPECT_EQ(x.clusters, y.clusters) << label << " shard " << s;
        EXPECT_EQ(statuses(x.stages), statuses(y.stages))
            << label << " shard " << s;
    }
}

TEST_F(ArchiveTest, ParallelAndSerialGetsAgree)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    const auto payload = patternBytes(1100, 7);
    ASSERT_TRUE(created.archive->put("obj", payload, 4).ok());
    ASSERT_EQ(created.archive->stat("obj")->shards.size(), 5u);

    RetrievalConfig serial;
    serial.error_rate = 0.02;
    serial.seed = 77;
    serial.num_threads = 1;
    const GetResult a = created.archive->get("obj", serial);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(a.data, payload);

    // Per-shard seeds depend only on (seed, pair_id), so thread count
    // cannot change the result, shard by shard.
    for (const std::size_t threads : {2u, 4u}) {
        RetrievalConfig parallel = serial;
        parallel.num_threads = threads;
        const std::string label = std::to_string(threads) + " threads";
        const GetResult b = created.archive->get("obj", parallel);
        ASSERT_TRUE(b.ok()) << label << ": " << b.error;
        EXPECT_EQ(a.data, b.data) << label;
        expectSameShards(a, b, label);
    }

    // get(n) is getMany({n})[0], for a stored and for a missing name.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        RetrievalConfig config = serial;
        config.num_threads = threads;
        for (const std::string name : {"obj", "missing"}) {
            const std::string label =
                name + " at " + std::to_string(threads) + " threads";
            const GetResult one = created.archive->get(name, config);
            const GetResult many =
                created.archive->getMany({name}, config).at(0);
            EXPECT_EQ(one.status, many.status) << label;
            EXPECT_EQ(one.error, many.error) << label;
            EXPECT_EQ(one.data, many.data) << label;
            expectSameShards(one, many, label);
        }
    }
    const GetResult missing = created.archive->get("missing", serial);
    EXPECT_EQ(missing.status, ArchiveStatus::NotFound);
}

TEST_F(ArchiveTest, OneShardRunsInlineWhateverTheThreadCount)
{
    auto created = Archive::create(dir(), smallParams());
    ASSERT_TRUE(created.ok()) << created.error;
    const auto payload = patternBytes(200, 8); // one 256-byte shard

    RetrievalConfig config;
    config.error_rate = 0.02;
    config.num_threads = 4;
    obs::Counter &tasks =
        obs::metrics().counter("util.thread_pool.tasks_total");
    const std::uint64_t before = tasks.value();
    ASSERT_TRUE(created.archive->put("one", payload, 4).ok());
    const GetResult got = created.archive->get("one", config);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.data, payload);
    // No pool was built for a single shard, so no task ran on one.
    EXPECT_EQ(tasks.value(), before);
}
