#include "archive/fsck.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "archive/manifest.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/span.hh"

namespace dnastore::archive
{

namespace
{

/**
 * True for "<base>.tmp.<digits>.<digits>" — the staging-name pattern
 * obs::writeTextFile uses (pid + process-wide counter).  A crash while
 * a writer is staging orphans exactly one such file.
 */
bool
isStaleStagingName(const std::string &name)
{
    const std::string marker = ".tmp.";
    const std::size_t at = name.rfind(marker);
    if (at == std::string::npos || at == 0)
        return false;
    const std::string tail = name.substr(at + marker.size());
    const std::size_t dot = tail.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= tail.size())
        return false;
    const auto allDigits = [](const std::string &s) {
        return !s.empty() &&
               s.find_first_not_of("0123456789") == std::string::npos;
    };
    return allDigits(tail.substr(0, dot)) && allDigits(tail.substr(dot + 1));
}

void
addFinding(FsckReport &report, FsckFindingKind kind, FsckSeverity severity,
           bool repairable, std::string path, std::string detail)
{
    FsckFinding finding;
    finding.kind = kind;
    finding.severity = severity;
    finding.repairable = repairable;
    finding.path = std::move(path);
    finding.detail = std::move(detail);
    report.findings.push_back(std::move(finding));
}

/** Sweep orphaned atomic-write staging files in @p dir. */
void
auditStagingFiles(const std::string &dir, bool repair, FsckReport &report)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return; // Directory-level failures surface via the manifest read.
    for (const auto &entry : it) {
        std::error_code type_ec;
        if (!entry.is_regular_file(type_ec) || type_ec)
            continue;
        const std::string name = entry.path().filename().string();
        if (!isStaleStagingName(name))
            continue;
        addFinding(report, FsckFindingKind::StaleTempFile,
                   FsckSeverity::Warning, true, name,
                   "orphaned atomic-write staging file (writer crashed "
                   "or was killed mid-write)");
        if (repair) {
            std::error_code rm_ec;
            if (std::filesystem::remove(entry.path(), rm_ec) && !rm_ec) {
                report.findings.back().repaired = true;
                report.repaired_count += 1;
            }
        }
    }
}

/** Deep scrub: decode every shard and CRC-verify every object. */
void
deepScrub(const std::string &dir, const FsckOptions &options,
          FsckReport &report)
{
    OpenResult opened = Archive::open(dir);
    if (!opened.ok()) {
        // Structural findings already explain why; nothing to decode.
        return;
    }
    const Archive &archive = *opened.archive;
    for (const ObjectEntry &object : archive.objects()) {
        const GetResult got = archive.get(object.name, options.retrieval);
        if (got.ok())
            continue;
        bool shard_failed = false;
        for (std::size_t s = 0; s < got.shards.size(); ++s) {
            const ShardOutcome &shard = got.shards[s];
            if (shard.ok)
                continue;
            shard_failed = true;
            std::string detail = "shard " + std::to_string(s) +
                                 " (pair " + std::to_string(shard.pair_id) +
                                 ") failed to decode";
            for (const PipelineError &err : shard.errors)
                detail += "; " + err.stage + ": " + err.message;
            addFinding(report, FsckFindingKind::ShardUndecodable,
                       FsckSeverity::Error, false, object.name,
                       std::move(detail));
        }
        if (!shard_failed) {
            addFinding(report, FsckFindingKind::ObjectCrcMismatch,
                       FsckSeverity::Error, false, object.name,
                       "every shard decoded but the reassembled object "
                       "failed its CRC: " + got.error);
        }
    }

    // The DNA self-description must decode too; it may lag manifest.json
    // by one save after crash recovery (the next save rewrites it).
    const ManifestParseResult dna =
        archive.decodeManifestFromDna(options.retrieval);
    if (!dna.manifest) {
        addFinding(report, FsckFindingKind::UndecodableDnaManifest,
                   FsckSeverity::Warning, false, kPoolFile,
                   "DNA-encoded manifest copy failed to decode: " +
                       dna.error);
    } else if (manifestJson(*dna.manifest) !=
               manifestJson(archive.manifest())) {
        addFinding(report, FsckFindingKind::StaleDnaManifest,
                   FsckSeverity::Note, false, kPoolFile,
                   "DNA-encoded manifest copy decodes but differs from "
                   "manifest.json (expected after crash recovery; the "
                   "next save rewrites it)");
    }
}

} // namespace

const char *
fsckFindingKindName(FsckFindingKind kind)
{
    switch (kind) {
    case FsckFindingKind::StaleTempFile:
        return "stale_temp_file";
    case FsckFindingKind::OrphanPoolRecord:
        return "orphan_pool_record";
    case FsckFindingKind::MalformedPoolRecord:
        return "malformed_pool_record";
    case FsckFindingKind::StrandCountMismatch:
        return "strand_count_mismatch";
    case FsckFindingKind::MissingManifest:
        return "missing_manifest";
    case FsckFindingKind::CorruptManifest:
        return "corrupt_manifest";
    case FsckFindingKind::MissingPool:
        return "missing_pool";
    case FsckFindingKind::UnreadablePool:
        return "unreadable_pool";
    case FsckFindingKind::MissingDnaManifest:
        return "missing_dna_manifest";
    case FsckFindingKind::StaleDnaManifest:
        return "stale_dna_manifest";
    case FsckFindingKind::UndecodableDnaManifest:
        return "undecodable_dna_manifest";
    case FsckFindingKind::ShardUndecodable:
        return "shard_undecodable";
    case FsckFindingKind::ObjectCrcMismatch:
        return "object_crc_mismatch";
    }
    return "unknown";
}

const char *
fsckSeverityName(FsckSeverity severity)
{
    switch (severity) {
    case FsckSeverity::Note:
        return "note";
    case FsckSeverity::Warning:
        return "warning";
    case FsckSeverity::Error:
        return "error";
    }
    return "unknown";
}

bool
FsckReport::healthy() const
{
    return std::none_of(findings.begin(), findings.end(),
                        [](const FsckFinding &f) {
                            return f.severity == FsckSeverity::Error;
                        });
}

FsckReport
fsckArchive(const std::string &dir, const FsckOptions &options)
{
    obs::Span span("archive/fsck");
    FsckReport report;
    obs::metrics().counter("archive.fsck_runs_total").add(1);

    // 1. Staging-file sweep runs even when the manifest is gone — a
    //    crashed create() can orphan a temp next to nothing else.
    auditStagingFiles(dir, options.repair, report);

    // 2. Load both files through the reader open() uses.  The manifest
    //    must exist, parse, CRC-verify and hold the pair-id invariant
    //    (tryParseManifest enforces all of it); the pool must be FASTA.
    const ArchiveFiles files = readArchiveFiles(dir, /*crash_points=*/false);
    if (files.manifest) {
        report.objects = files.manifest->objects.size();
        report.shards = files.manifest->totalShards();
    }
    if (files.status != ArchiveStatus::Ok) {
        const bool pool = files.manifest.has_value(); // Which file failed.
        const FsckFindingKind kind =
            pool ? (files.missing_file ? FsckFindingKind::MissingPool
                                       : FsckFindingKind::UnreadablePool)
                 : (files.missing_file ? FsckFindingKind::MissingManifest
                                       : FsckFindingKind::CorruptManifest);
        addFinding(report, kind, FsckSeverity::Error, false,
                   pool ? kPoolFile : kManifestFile, files.error);
        report.status = files.status;
        report.error = files.error;
        return report;
    }
    report.pool_records = files.pool.size() + files.rejected.size();

    // 3. Pool audit: every record must parse and belong to a pair the
    //    manifest references; referenced pairs must hold exactly the
    //    strand counts the manifest promises.  Repair drops orphaned and
    //    malformed records by an atomic rewrite of the pool as loaded;
    //    renumbering record indices is safe — only the pair id is load-
    //    bearing — and matches what the next save would emit anyway.
    const bool rewritten = options.repair && !files.rejected.empty() &&
                           writePoolFile(dir, files.pool);
    for (const RejectedPoolRecord &record : files.rejected) {
        if (!record.pair_id) {
            addFinding(report, FsckFindingKind::MalformedPoolRecord,
                       FsckSeverity::Warning, true, record.id,
                       "pool record without a parsable pair id");
        } else {
            addFinding(report, FsckFindingKind::OrphanPoolRecord,
                       FsckSeverity::Warning, true, record.id,
                       "pair " + std::to_string(*record.pair_id) +
                           " is not referenced by the manifest "
                           "(interrupted save: pool committed, manifest "
                           "not)");
        }
        report.findings.back().repaired = rewritten;
        report.repaired_count += rewritten ? 1 : 0;
    }
    for (const StrandCountMismatch &mismatch : files.mismatches) {
        addFinding(report, FsckFindingKind::StrandCountMismatch,
                   FsckSeverity::Error, false, mismatch.object,
                   "pair " + std::to_string(mismatch.pair_id) +
                       ": manifest promises " +
                       std::to_string(mismatch.expected) +
                       " strands, pool has " +
                       std::to_string(mismatch.actual));
        report.status = ArchiveStatus::CorruptPool;
    }
    if (files.pool.section(kManifestPairId).empty()) {
        addFinding(report, FsckFindingKind::MissingDnaManifest,
                   FsckSeverity::Warning, false, kPoolFile,
                   "pool holds no pair-0 molecules: the DNA-encoded "
                   "manifest copy is gone (the next save rewrites it)");
    }
    if (report.status != ArchiveStatus::Ok)
        report.error = "pool/manifest strand counts diverge";

    // 4. Deep scrub through the codec (decodes mixed-pool shards, so it
    //    runs after any repair to audit what a reader would now see).
    if (options.deep && report.status == ArchiveStatus::Ok)
        deepScrub(dir, options, report);

    if (report.status == ArchiveStatus::Ok && !report.healthy()) {
        report.status = ArchiveStatus::CorruptPool;
        report.error = "deep scrub found undecodable data";
    }
    obs::metrics()
        .counter("archive.fsck_findings_total")
        .add(report.findings.size());
    obs::metrics()
        .counter("archive.fsck_repairs_total")
        .add(report.repaired_count);
    return report;
}

std::string
fsckReportJson(const FsckReport &report, const std::string &dir,
               const FsckOptions &options)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("archive_dir");
    json.value(dir);
    json.key("checked");
    json.beginObject();
    json.key("objects");
    json.value(static_cast<std::uint64_t>(report.objects));
    json.key("pool_records");
    json.value(static_cast<std::uint64_t>(report.pool_records));
    json.key("shards");
    json.value(static_cast<std::uint64_t>(report.shards));
    json.endObject();
    json.key("clean");
    json.value(report.clean());
    json.key("deep");
    json.value(options.deep);
    json.key("error");
    json.value(report.error);
    json.key("findings");
    json.beginArray();
    for (const FsckFinding &finding : report.findings) {
        json.beginObject();
        json.key("detail");
        json.value(finding.detail);
        json.key("kind");
        json.value(fsckFindingKindName(finding.kind));
        json.key("path");
        json.value(finding.path);
        json.key("repairable");
        json.value(finding.repairable);
        json.key("repaired");
        json.value(finding.repaired);
        json.key("severity");
        json.value(fsckSeverityName(finding.severity));
        json.endObject();
    }
    json.endArray();
    json.key("healthy");
    json.value(report.healthy());
    json.key("repair");
    json.value(options.repair);
    json.key("repaired_count");
    json.value(static_cast<std::uint64_t>(report.repaired_count));
    json.key("schema");
    json.value("dnastore.fsck_report");
    json.key("schema_version");
    json.value(std::int64_t{obs::kSchemaVersion});
    json.key("status");
    json.value(archiveStatusName(report.status));
    json.endObject();
    return json.text();
}

} // namespace dnastore::archive
