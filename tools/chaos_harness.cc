/**
 * @file
 * chaos_harness — trace-driven crash/recovery harness for the archive.
 *
 * Each cycle the harness
 *   1. generates a seeded workload trace: mixed puts of fresh objects
 *      (shard encodes in a width-2 parallelFor), overwrite attempts against
 *      stored names (must fail AlreadyExists and leave data intact),
 *      Zipf-skewed gets and stats, and bursts of concurrent report
 *      writers hammering one obs::writeTextFile target;
 *   2. forks a child that replays the trace against the archive with a
 *      randomly scheduled crash point armed (obs/crashpoint.hh): the
 *      child dies mid-save, mid-write or mid-open with exit code 86,
 *      exactly as a kill -9 would take it;
 *   3. reopens the archive in the parent and asserts the recovery
 *      invariants: the manifest parses (CRC + pair-id invariants),
 *      `archive fsck` reports no Error-severity findings, repair leaves
 *      the directory byte-clean, every manifest-referenced object the
 *      parent samples decodes byte-exactly, and object data matches the
 *      deterministic per-name generator (so a torn save can never
 *      surface wrong bytes as a "success").
 *
 * Every byte of workload derives from --seed, so any failing run is
 * replayable: rerun with the printed seed (from cycle 0 against a fresh
 * directory) to reproduce the exact kill schedule and trace.  The
 * failing cycle's trace is also dumped as a dnastore.chaos_trace JSON
 * document (--trace-out).
 *
 * Exit codes: 0 all cycles clean; 1 an invariant was violated (details
 * on stderr, trace dumped).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "obs/crashpoint.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "util/args.hh"
#include "util/random.hh"

using namespace dnastore;

namespace
{

/** Child exit code for an invariant the child itself caught. */
constexpr int kChildViolation = 70;

/** Objects per archive epoch before the directory is reset. */
constexpr std::size_t kEpochObjectCap = 25;

struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        PutNew,      //!< Store a fresh object (name carried in op).
        PutExisting, //!< Overwrite attempt: must fail AlreadyExists.
        Get,         //!< Decode an object, verify byte-exact.
        Stat,        //!< Metadata lookup must succeed.
        ReportBurst, //!< N threads concurrently writeTextFile one target.
    };
    Kind kind = Kind::PutNew;
    std::string name;       //!< PutNew only.
    std::uint64_t rank = 0; //!< Popularity rank for existing-object ops.
};

const char *
opKindName(TraceOp::Kind kind)
{
    switch (kind) {
    case TraceOp::Kind::PutNew:
        return "put_new";
    case TraceOp::Kind::PutExisting:
        return "put_existing";
    case TraceOp::Kind::Get:
        return "get";
    case TraceOp::Kind::Stat:
        return "stat";
    case TraceOp::Kind::ReportBurst:
        return "report_burst";
    }
    return "unknown";
}

/** One cycle's worth of scheduled chaos. */
struct CycleSpec
{
    std::uint64_t cycle_seed = 0;
    std::vector<TraceOp> ops;
    std::string crash_spec; //!< crash::configure clause; empty = none.
};

/** FNV-1a so object bytes are a pure function of the object name. */
std::uint64_t
hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Deterministic per-name object size in [24, 624): Zipf-ish small. */
std::size_t
objectSize(const std::string &name)
{
    return 24 + static_cast<std::size_t>((hashName(name) >> 7) % 600);
}

/** Deterministic per-name payload; both parent and child regenerate it. */
std::vector<std::uint8_t>
objectBytes(const std::string &name)
{
    Rng rng(hashName(name));
    std::vector<std::uint8_t> data(objectSize(name));
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

/** Zipf-skewed rank: low ranks (old, popular objects) dominate. */
std::uint64_t
zipfRank(Rng &rng)
{
    const double u = rng.uniform();
    return static_cast<std::uint64_t>(1000.0 * u * u * u);
}

archive::ArchiveParams
harnessParams()
{
    archive::ArchiveParams params;
    params.max_shard_bytes = 256;
    return params;
}

/** Retrieval settings tuned for reliable byte-exact verification. */
archive::RetrievalConfig
verifyRetrieval(std::uint64_t seed, std::size_t threads)
{
    archive::RetrievalConfig cfg;
    cfg.error_rate = 0.01;
    cfg.coverage = 10.0;
    cfg.min_cluster_size = 1;
    cfg.max_decode_retries = 1;
    cfg.seed = seed;
    cfg.num_threads = threads;
    return cfg;
}

/**
 * Generate cycle @p cycle's trace + crash schedule.  Everything flows
 * from the cycle seed, which flows from the master seed, so a replay
 * from cycle 0 regenerates the identical workload.
 */
CycleSpec
makeCycle(std::uint64_t master_seed, std::uint64_t cycle)
{
    CycleSpec spec;
    SplitMix64 mixer(master_seed ^
                     (cycle + 1) * 0x9e3779b97f4a7c15ULL);
    spec.cycle_seed = mixer.next();
    Rng rng(spec.cycle_seed);

    const std::size_t num_ops = 8 + rng.below(8);
    spec.ops.reserve(num_ops);
    for (std::size_t i = 0; i < num_ops; ++i) {
        const double pick = rng.uniform();
        TraceOp op;
        if (pick < 0.35) {
            op.kind = TraceOp::Kind::PutNew;
            // reserve + append rather than a chain of operator+: GCC 12
            // at -O3 reports a false -Werror=restrict inside the
            // inlined char_traits copy of the concatenation.
            const std::string cycle_str = std::to_string(cycle);
            const std::string op_str = std::to_string(i);
            op.name.reserve(2 + cycle_str.size() + op_str.size());
            op.name.append("o").append(cycle_str).append("_").append(op_str);
        } else if (pick < 0.45) {
            op.kind = TraceOp::Kind::PutExisting;
            op.rank = zipfRank(rng);
        } else if (pick < 0.70) {
            op.kind = TraceOp::Kind::Get;
            op.rank = zipfRank(rng);
        } else if (pick < 0.88) {
            op.kind = TraceOp::Kind::Stat;
            op.rank = zipfRank(rng);
        } else {
            op.kind = TraceOp::Kind::ReportBurst;
        }
        spec.ops.push_back(std::move(op));
    }

    // Crash schedule: most cycles kill at a random point's Nth hit; the
    // rest run to completion (and prove the trace itself is sound) or
    // inject a clean IO failure the child must survive.
    struct PointChoice
    {
        const char *point;
        const char *action;
    };
    static constexpr PointChoice kChoices[] = {
        {"archive.save.pool", "kill"},
        {"archive.save.between", "kill"}, // pool-ahead-of-manifest
        {"archive.save.commit", "kill"},
        {"archive.open.manifest", "kill"},
        {"archive.open.pool", "kill"},
        {"obs.write.open", "kill"},
        {"obs.write.body", "kill"},
        {"obs.write.body", "short"}, // truncated staging file left behind
        {"obs.write.rename", "kill"}, // complete staging file left behind
        {"obs.write.body", "werror"}, // simulated ENOSPC, clean failure
        {"obs.write.rename", "renameerror"},
    };
    const double crash_roll = rng.uniform();
    if (crash_roll < 0.8) {
        const PointChoice &choice =
            kChoices[rng.below(sizeof(kChoices) / sizeof(kChoices[0]))];
        const std::uint64_t nth = 1 + rng.below(6);
        spec.crash_spec = std::string(choice.point) + "=" + choice.action +
                          "@" + std::to_string(nth);
    }
    return spec;
}

/** The cycle as a dnastore.chaos_trace JSON document. */
std::string
cycleTraceJson(const CycleSpec &spec, std::uint64_t master_seed,
               std::uint64_t cycle, const std::string &dir,
               const std::string &failure)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("archive_dir");
    json.value(dir);
    json.key("crash_spec");
    json.value(spec.crash_spec);
    json.key("cycle");
    json.value(static_cast<std::uint64_t>(cycle));
    json.key("cycle_seed");
    json.value(static_cast<std::uint64_t>(spec.cycle_seed));
    json.key("failure");
    json.value(failure);
    json.key("ops");
    json.beginArray();
    for (const TraceOp &op : spec.ops) {
        json.beginObject();
        json.key("kind");
        json.value(opKindName(op.kind));
        json.key("name");
        json.value(op.name);
        json.key("rank");
        json.value(static_cast<std::uint64_t>(op.rank));
        json.endObject();
    }
    json.endArray();
    json.key("replay");
    json.value("chaos_harness --seed " + std::to_string(master_seed) +
               " --cycles " + std::to_string(cycle + 1) +
               " --dir <fresh-dir>");
    json.key("schema");
    json.value("dnastore.chaos_trace");
    json.key("schema_version");
    json.value(std::int64_t{obs::kSchemaVersion});
    json.key("seed");
    json.value(static_cast<std::uint64_t>(master_seed));
    json.endObject();
    return json.text();
}

/**
 * Child body: replay the trace with the crash spec armed.  Never
 * returns — exits 0 (trace done), 86 (scheduled crash fired) or 70
 * (the child itself caught an invariant violation).
 */
[[noreturn]] void
runChild(const CycleSpec &spec, const std::string &dir)
{
    // Arm via the environment so the env parsing path is exercised on
    // every cycle (an empty spec parses to "disarmed").
    ::setenv("DNASTORE_CRASHPOINTS", spec.crash_spec.c_str(), 1);
    if (!obs::crash::configureFromEnv()) {
        std::fprintf(stderr, "chaos child: bad crash spec '%s'\n",
                     spec.crash_spec.c_str());
        std::_Exit(kChildViolation);
    }

    // Clean IO failures (IoError) are legitimate outcomes only while a
    // werror/renameerror fault is armed; otherwise they are bugs.
    const bool io_faults_armed =
        spec.crash_spec.find("werror") != std::string::npos ||
        spec.crash_spec.find("renameerror") != std::string::npos;

    archive::OpenResult opened = archive::Archive::open(dir);
    if (opened.status == archive::ArchiveStatus::NotFound)
        opened = archive::Archive::create(dir, harnessParams());
    if (!opened.ok()) {
        if (io_faults_armed &&
            opened.status == archive::ArchiveStatus::IoError)
            std::_Exit(0); // Injected ENOSPC stopped create(); fine.
        // An unreadable archive at child start is a recovery failure
        // the parent asserts on too, but the child flags it first.
        std::fprintf(stderr, "chaos child: open failed: %s\n",
                     opened.error.c_str());
        std::_Exit(kChildViolation);
    }
    archive::Archive &ar = *opened.archive;

    // Live name list: manifest objects + this trace's successful puts.
    std::vector<std::string> names;
    for (const auto &object : ar.objects())
        names.push_back(object.name);
    const auto resolve = [&names](std::uint64_t rank) -> const std::string * {
        if (names.empty())
            return nullptr;
        return &names[static_cast<std::size_t>(rank % names.size())];
    };

    Rng rng(spec.cycle_seed ^ 0xc41ddULL);
    for (const TraceOp &op : spec.ops) {
        switch (op.kind) {
        case TraceOp::Kind::PutNew: {
            const auto put = ar.put(op.name, objectBytes(op.name),
                                    /*num_threads=*/2);
            if (put.ok()) {
                names.push_back(op.name);
            } else if (!io_faults_armed ||
                       put.status != archive::ArchiveStatus::IoError) {
                // Only an armed IO fault may fail a put, and then only
                // cleanly (IoError); anything else is a bug.
                std::fprintf(stderr,
                             "chaos child: put '%s' failed oddly: %s\n",
                             op.name.c_str(), put.error.c_str());
                std::_Exit(kChildViolation);
            }
            break;
        }
        case TraceOp::Kind::PutExisting: {
            const std::string *name = resolve(op.rank);
            if (name == nullptr)
                break;
            const auto put = ar.put(*name, objectBytes(*name), 1);
            if (put.status != archive::ArchiveStatus::AlreadyExists) {
                std::fprintf(
                    stderr,
                    "chaos child: overwrite of '%s' returned %s, want "
                    "already-exists\n",
                    name->c_str(), archive::archiveStatusName(put.status));
                std::_Exit(kChildViolation);
            }
            break;
        }
        case TraceOp::Kind::Get: {
            const std::string *name = resolve(op.rank);
            if (name == nullptr)
                break;
            const std::uint64_t get_seed = rng.next();
            const std::size_t get_threads = 1 + rng.below(2);
            const auto got =
                ar.get(*name, verifyRetrieval(get_seed, get_threads));
            if (!got.ok() || got.data != objectBytes(*name)) {
                std::fprintf(stderr,
                             "chaos child: get '%s' not byte-exact: %s\n",
                             name->c_str(), got.error.c_str());
                std::_Exit(kChildViolation);
            }
            break;
        }
        case TraceOp::Kind::Stat: {
            const std::string *name = resolve(op.rank);
            if (name == nullptr)
                break;
            const auto *object = ar.stat(*name);
            if (object == nullptr ||
                object->size_bytes != objectSize(*name)) {
                std::fprintf(stderr,
                             "chaos child: stat '%s' wrong or missing\n",
                             name->c_str());
                std::_Exit(kChildViolation);
            }
            break;
        }
        case TraceOp::Kind::ReportBurst: {
            // Concurrent writers to ONE target: unique staging names
            // keep them from interleaving; a kill mid-burst orphans
            // several temps for fsck to sweep.
            const std::string target = dir + "/run_report.json";
            std::vector<std::thread> writers;
            for (int w = 0; w < 3; ++w) {
                writers.emplace_back([&target, w]() {
                    const std::string text(
                        static_cast<std::size_t>(1024 + 512 * w),
                        static_cast<char>('a' + w));
                    (void)obs::writeTextFile(target, text);
                });
            }
            for (auto &writer : writers)
                writer.join();
            break;
        }
        }
    }
    std::_Exit(0);
}

/** Everything the parent asserts after a cycle's child has exited. */
struct CycleOutcome
{
    bool ok = true;
    std::string failure;
};

void
failCycle(CycleOutcome &outcome, const std::string &why)
{
    outcome.ok = false;
    if (!outcome.failure.empty())
        outcome.failure += "; ";
    outcome.failure += why;
}

/**
 * Post-kill recovery audit: reopen, fsck (detect -> repair -> verify
 * clean) and byte-exact sampling of manifest-referenced objects.
 */
CycleOutcome
auditRecovery(const std::string &dir, Rng &rng, bool deep,
              const std::string &fsck_json_path)
{
    CycleOutcome outcome;

    archive::OpenResult opened = archive::Archive::open(dir);
    const bool archive_exists =
        opened.status != archive::ArchiveStatus::NotFound;
    if (archive_exists && !opened.ok()) {
        failCycle(outcome, "archive did not reopen: " + opened.error);
        return outcome;
    }

    // fsck pass 1: detect.  A crashed save may leave warnings (orphan
    // records, stale temps) but never Error-severity findings.
    archive::FsckOptions detect;
    const archive::FsckReport before = archive::fsckArchive(dir, detect);
    if (archive_exists && !before.healthy())
        failCycle(outcome, "fsck pre-repair unhealthy: " + before.error);

    // fsck pass 2: repair, then a third pass must come back byte-clean
    // (on an existing archive; a crashed first create legitimately
    // leaves only a pool or staging files, which repair sweeps).
    archive::FsckOptions repair;
    repair.repair = true;
    const archive::FsckReport repaired = archive::fsckArchive(dir, repair);
    for (const auto &finding : repaired.findings) {
        if (finding.repairable && !finding.repaired)
            failCycle(outcome, std::string("repairable finding not "
                                           "repaired: ") +
                                   archive::fsckFindingKindName(
                                       finding.kind));
    }
    archive::FsckOptions verify;
    verify.deep = deep;
    verify.retrieval = verifyRetrieval(rng.next(), 2);
    const archive::FsckReport after = archive::fsckArchive(dir, verify);
    if (!fsck_json_path.empty()) {
        (void)obs::writeTextFile(
            fsck_json_path,
            archive::fsckReportJson(after, dir, verify));
    }
    if (archive_exists) {
        if (!after.healthy())
            failCycle(outcome,
                      "fsck post-repair unhealthy: " + after.error);
        for (const auto &finding : after.findings) {
            // Post-repair the only acceptable findings are deep-scrub
            // notes about the DNA manifest copy lagging manifest.json.
            if (finding.kind != archive::FsckFindingKind::StaleDnaManifest)
                failCycle(outcome,
                          std::string("fsck not clean after repair: ") +
                              archive::fsckFindingKindName(finding.kind) +
                              " " + finding.detail);
        }
    }

    if (!archive_exists || !opened.ok())
        return outcome;

    // Byte-exact sampling: the in-flight put (newest object) plus a
    // Zipf-weighted sample of older ones.  Data is a pure function of
    // the name, so a torn save can never masquerade as correct data.
    const auto &objects = opened.archive->objects();
    if (objects.empty())
        return outcome;
    std::vector<std::size_t> sample;
    sample.push_back(objects.size() - 1); // newest: the riskiest object
    for (int i = 0; i < 2 && objects.size() > 1; ++i)
        sample.push_back(static_cast<std::size_t>(zipfRank(rng) %
                                                  objects.size()));
    for (const std::size_t index : sample) {
        const auto &object = objects[index];
        if (object.size_bytes != objectSize(object.name)) {
            failCycle(outcome, "object '" + object.name +
                                   "' has wrong manifest size");
            continue;
        }
        const std::uint64_t get_seed = rng.next();
        const std::size_t get_threads = 1 + rng.below(2);
        const auto got = opened.archive->get(
            object.name, verifyRetrieval(get_seed, get_threads));
        if (!got.ok() || got.data != objectBytes(object.name))
            failCycle(outcome, "object '" + object.name +
                                   "' not byte-exact after recovery: " +
                                   got.error);
    }
    return outcome;
}

void
usage()
{
    std::cerr
        << "usage: chaos_harness [--cycles N] [--seed S] [--dir DIR]\n"
           "                     [--start-cycle C] [--trace-out PATH]\n"
           "                     [--fsck-json PATH] [--deep-every N]\n"
           "                     [--verbose]\n"
           "\n"
           "Runs N seeded kill cycles against an archive: each cycle\n"
           "replays a generated put/get/overwrite trace in a forked\n"
           "child, kills it at a randomly scheduled crash point, then\n"
           "reopens, runs `archive fsck` (detect -> repair -> verify\n"
           "clean) and checks byte-exact recovery.\n"
           "\n"
           "Reproducing a failure: every trace and kill schedule is a\n"
           "pure function of --seed.  Paste the seed the failing run\n"
           "printed, e.g.\n"
           "    chaos_harness --seed 12345 --cycles 87 --dir fresh-dir\n"
           "and cycle 86 replays the identical workload and kill.  The\n"
           "failing cycle's full trace is also written to --trace-out\n"
           "(default chaos_trace.json) as a dnastore.chaos_trace\n"
           "document.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    if (args.getBool("help", false)) {
        usage();
        return 0;
    }
    const std::uint64_t cycles =
        static_cast<std::uint64_t>(args.getInt("cycles", 200));
    const std::uint64_t master_seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::uint64_t start_cycle =
        static_cast<std::uint64_t>(args.getInt("start-cycle", 0));
    const std::string dir = args.get("dir", "chaos_archive");
    const std::string trace_out =
        args.get("trace-out", "chaos_trace.json");
    const std::string fsck_json = args.get("fsck-json", "");
    const std::uint64_t deep_every =
        static_cast<std::uint64_t>(args.getInt("deep-every", 25));
    const bool verbose = args.getBool("verbose", false);

    // The parent must never crash on its own writes: disarm whatever
    // DNASTORE_CRASHPOINTS the environment carries (children re-arm
    // their own schedule after fork).
    obs::crash::reset();

    // A run that starts at cycle 0 starts from an empty directory, so
    // the same seed always replays the same history (leftover objects
    // from a previous run would collide with the regenerated names).
    if (start_cycle == 0) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    Rng parent_rng(master_seed ^ 0x9a4e47ULL);
    std::uint64_t kills = 0;
    std::uint64_t completed = 0;
    for (std::uint64_t cycle = start_cycle; cycle < cycles; ++cycle) {
        const CycleSpec spec = makeCycle(master_seed, cycle);

        std::cout.flush();
        std::cerr.flush();
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::cerr << "chaos_harness: fork failed\n";
            return 1;
        }
        if (pid == 0)
            runChild(spec, dir); // never returns

        int status = 0;
        if (::waitpid(pid, &status, 0) != pid) {
            std::cerr << "chaos_harness: waitpid failed\n";
            return 1;
        }

        CycleOutcome outcome;
        if (WIFSIGNALED(status)) {
            failCycle(outcome,
                      "child died on signal " +
                          std::to_string(WTERMSIG(status)) +
                          " (real crash, not a scheduled one)");
        } else if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            if (code == obs::crash::kCrashExitCode)
                ++kills;
            else if (code == 0)
                ++completed;
            else
                failCycle(outcome, "child exited with code " +
                                       std::to_string(code));
        }

        if (outcome.ok) {
            const bool deep =
                deep_every != 0 && (cycle + 1) % deep_every == 0;
            const CycleOutcome audit =
                auditRecovery(dir, parent_rng, deep, fsck_json);
            if (!audit.ok)
                outcome = audit;
        }

        if (!outcome.ok) {
            std::cerr << "chaos_harness: FAILED at cycle " << cycle
                      << ": " << outcome.failure << "\n"
                      << "  reproduce: chaos_harness --seed "
                      << master_seed << " --cycles " << (cycle + 1)
                      << " --dir <fresh-dir>\n";
            if (!obs::writeTextFile(
                    trace_out, cycleTraceJson(spec, master_seed, cycle,
                                              dir, outcome.failure)))
                std::cerr << "chaos_harness: could not write "
                          << trace_out << "\n";
            else
                std::cerr << "  trace: " << trace_out << "\n";
            return 1;
        }

        if (verbose) {
            std::cout << "cycle " << cycle << ": "
                      << (spec.crash_spec.empty() ? "no-crash"
                                                  : spec.crash_spec)
                      << " -> recovered\n";
        }

        // Epoch reset: bound archive growth so late cycles stay fast.
        archive::OpenResult opened = archive::Archive::open(dir);
        if (opened.ok() &&
            opened.archive->objects().size() >= kEpochObjectCap) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
            if (verbose)
                std::cout << "epoch reset after cycle " << cycle << "\n";
        }
    }

    std::cout << "chaos_harness: " << (cycles - start_cycle)
              << " cycles ok (" << kills << " scheduled kills, "
              << completed << " clean completions), seed " << master_seed
              << "\n";
    if (args.has("trace-out")) {
        const CycleSpec last = makeCycle(master_seed, cycles - 1);
        (void)obs::writeTextFile(
            trace_out,
            cycleTraceJson(last, master_seed, cycles - 1, dir, ""));
    }
    return 0;
}
