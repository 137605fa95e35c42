/**
 * @file
 * dnastore — command-line front end to the toolkit.  Every pipeline
 * stage runs as its own subcommand so stages can be mixed, swapped and
 * chained through plain files, mirroring the paper's modular design
 * (Section III):
 *
 *   dnastore encode      --in FILE --out strands.txt [codec options]
 *   dnastore simulate    --in strands.txt --out reads.txt [channel opts]
 *   dnastore cluster     --in reads.txt --out clusters.txt [opts]
 *   dnastore reconstruct --in clusters.txt --out consensus.txt [opts]
 *   dnastore decode      --in consensus.txt --out FILE [codec options]
 *   dnastore pipeline    --in FILE --out FILE [all of the above]
 *
 * Shared codec options: --payload-nt, --index-nt, --rs-n, --rs-k,
 * --scheme=baseline|gini|dnamapper.
 * Channel options: --channel=iid|solqc|wetlab, --error-rate, --coverage,
 * --seed.  Clustering: --signature=q|w, --edit-threshold, --threads.
 * Reconstruction: --algo=bma|dbma|nw, --length.
 * Fault injection (pipeline only): --fault-dropout, --fault-truncation,
 * --fault-elongation, --fault-index, --fault-duplicate, --fault-garbage,
 * --fault-cluster-drop, --fault-cluster-merge (rates in [0,1]),
 * --fault-seed.  Recovery: --retries=N re-decodes with degraded
 * settings when the first decode fails.
 * Observability (pipeline only): --metrics-json PATH writes the
 * machine-readable run report (schema dnastore.run_report, see
 * docs/OBSERVABILITY.md); --trace-json PATH writes a Chrome trace_event
 * file loadable in chrome://tracing or Perfetto.
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "core/run_report.hh"
#include "core/text_io.hh"
#include "obs/lock_timing.hh"
#include "obs/report.hh"
#include "obs/span.hh"
#include "obs/trace_export.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "server/client.hh"
#include "simulator/solqc_channel.hh"
#include "simulator/virtual_wetlab.hh"
#include "util/args.hh"

#include "report_diff.hh"

using namespace dnastore;

namespace
{

MatrixCodecConfig
codecConfig(const ArgParser &args)
{
    MatrixCodecConfig cfg;
    cfg.payload_nt =
        static_cast<std::size_t>(args.getInt("payload-nt", 120));
    cfg.index_nt = static_cast<std::size_t>(args.getInt("index-nt", 12));
    cfg.rs_n = static_cast<std::size_t>(args.getInt("rs-n", 60));
    cfg.rs_k = static_cast<std::size_t>(args.getInt("rs-k", 40));
    const std::string scheme = args.get("scheme", "baseline");
    if (scheme == "gini")
        cfg.scheme = LayoutScheme::Gini;
    else if (scheme == "dnamapper")
        cfg.scheme = LayoutScheme::DNAMapper;
    else if (scheme != "baseline")
        throw std::invalid_argument("unknown --scheme: " + scheme);
    return cfg;
}

std::unique_ptr<Channel>
makeChannel(const ArgParser &args)
{
    const std::string name = args.get("channel", "iid");
    const double rate = args.getDouble("error-rate", 0.06);
    if (name == "iid") {
        return std::make_unique<IidChannel>(
            IidChannelConfig::fromTotalErrorRate(rate));
    }
    if (name == "solqc") {
        return std::make_unique<SolqcChannel>(
            SolqcChannelConfig::fromTotalErrorRate(rate));
    }
    if (name == "wetlab") {
        VirtualWetlabConfig cfg;
        cfg.base_error_rate = rate;
        return std::make_unique<VirtualWetlabChannel>(cfg);
    }
    throw std::invalid_argument("unknown --channel: " + name);
}

RashtchianClustererConfig
clustererConfig(const ArgParser &args)
{
    auto cfg = RashtchianClustererConfig::forErrorRate(
        args.getDouble("error-rate", 0.06),
        static_cast<std::size_t>(args.getInt("read-len", 132)));
    if (args.get("signature", "q") == "w")
        cfg.signature = SignatureKind::WGram;
    if (args.has("edit-threshold")) {
        cfg.edit_threshold =
            static_cast<std::size_t>(args.getInt("edit-threshold", 25));
    }
    cfg.num_threads =
        static_cast<std::size_t>(args.getInt("threads", 1));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    return cfg;
}

std::unique_ptr<Reconstructor>
makeReconstructor(const ArgParser &args)
{
    const std::string algo = args.get("algo", "nw");
    if (algo == "bma")
        return std::make_unique<BmaReconstructor>();
    if (algo == "dbma")
        return std::make_unique<DoubleSidedBmaReconstructor>();
    if (algo == "nw")
        return std::make_unique<NwConsensusReconstructor>();
    throw std::invalid_argument("unknown --algo: " + algo);
}

/** Build a FaultPlan from --fault-* options (all zero: no faults). */
FaultPlan
faultPlan(const ArgParser &args, std::size_t index_nt)
{
    FaultPlan plan;
    plan.index_nt = index_nt;
    plan.seed = static_cast<std::uint64_t>(
        args.getInt("fault-seed", static_cast<long>(plan.seed)));
    plan.strand_dropout = args.getDouble("fault-dropout", 0.0);
    plan.read_truncation = args.getDouble("fault-truncation", 0.0);
    plan.read_elongation = args.getDouble("fault-elongation", 0.0);
    plan.index_corruption = args.getDouble("fault-index", 0.0);
    plan.duplicate_conflict = args.getDouble("fault-duplicate", 0.0);
    plan.garbage_read = args.getDouble("fault-garbage", 0.0);
    plan.cluster_drop = args.getDouble("fault-cluster-drop", 0.0);
    plan.cluster_merge = args.getDouble("fault-cluster-merge", 0.0);
    return plan;
}

std::string
requireOption(const ArgParser &args, const std::string &name)
{
    const std::string value = args.get(name, "");
    if (value.empty())
        throw std::invalid_argument("--" + name + " is required");
    return value;
}

int
cmdEncode(const ArgParser &args)
{
    const auto data = readBinaryFile(requireOption(args, "in"));
    MatrixEncoder encoder(codecConfig(args));
    const auto strands = encoder.encode(data);
    writeStrandFile(requireOption(args, "out"), strands);
    std::cout << "encoded " << data.size() << " bytes into "
              << strands.size() << " strands ("
              << encoder.unitsForSize(data.size()) << " units)\n";
    return 0;
}

int
cmdSimulate(const ArgParser &args)
{
    const auto strands = readStrandFile(requireOption(args, "in"));
    const auto channel = makeChannel(args);
    Rng rng(static_cast<std::uint64_t>(args.getInt("seed", 42)));
    CoverageModel coverage(args.getDouble("coverage", 10.0),
                           CoverageDistribution::Poisson);
    const auto run = simulateSequencing(strands, *channel, coverage, rng);
    writeStrandFile(requireOption(args, "out"), run.reads);
    std::cout << "simulated " << run.reads.size() << " reads from "
              << strands.size() << " strands via " << channel->name()
              << " (" << run.dropped_strands << " strands dropped)\n";
    return 0;
}

int
cmdCluster(const ArgParser &args)
{
    const auto reads = readStrandFile(requireOption(args, "in"));
    RashtchianClusterer clusterer(clustererConfig(args));
    const auto clustering = clusterer.cluster(reads);
    std::vector<std::vector<Strand>> groups;
    groups.reserve(clustering.clusters.size());
    const std::size_t min_size =
        static_cast<std::size_t>(args.getInt("min-cluster-size", 1));
    for (const auto &cluster : clustering.clusters) {
        if (cluster.size() < min_size)
            continue;
        std::vector<Strand> group;
        for (const std::uint32_t idx : cluster)
            group.push_back(reads[idx]);
        groups.push_back(std::move(group));
    }
    writeClusterFile(requireOption(args, "out"), groups);
    const auto &stats = clusterer.stats();
    std::cout << "clustered " << reads.size() << " reads into "
              << groups.size() << " clusters (theta " << stats.theta_low
              << "/" << stats.theta_high << ", "
              << stats.edit_distance_calls << " edit calls)\n";
    return 0;
}

int
cmdReconstruct(const ArgParser &args)
{
    const auto clusters = readClusterFile(requireOption(args, "in"));
    const std::size_t length =
        static_cast<std::size_t>(args.getInt("length", 0));
    if (length == 0)
        throw std::invalid_argument("--length (strand length) is required");
    const auto algo = makeReconstructor(args);
    const auto consensus = reconstructAll(
        *algo, clusters, length,
        static_cast<std::size_t>(args.getInt("threads", 1)));
    writeStrandFile(requireOption(args, "out"), consensus);
    std::cout << "reconstructed " << consensus.size()
              << " strands with " << algo->name() << "\n";
    return 0;
}

int
cmdDecode(const ArgParser &args)
{
    const auto strands = readStrandFile(requireOption(args, "in"));
    MatrixDecoder decoder(codecConfig(args));
    const auto report = decoder.decode(
        strands, static_cast<std::size_t>(args.getInt("units", 0)));
    std::cout << "decode " << (report.ok ? "OK" : "FAILED") << ": "
              << report.data.size() << " bytes, " << report.failed_rows
              << "/" << report.total_rows << " RS rows failed, "
              << report.corrected_errors << " symbol errors corrected\n";
    if (!report.data.empty())
        writeBinaryFile(requireOption(args, "out"), report.data);
    return report.ok ? 0 : 1;
}

int
cmdPipeline(const ArgParser &args)
{
    const auto data = readBinaryFile(requireOption(args, "in"));
    const auto codec_cfg = codecConfig(args);
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    const auto channel = makeChannel(args);
    auto clu_cfg = clustererConfig(args);
    RashtchianClusterer clusterer(clu_cfg);
    const auto recon = makeReconstructor(args);

    PipelineConfig cfg;
    cfg.coverage = CoverageModel(args.getDouble("coverage", 10.0),
                                 CoverageDistribution::Poisson);
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    cfg.num_threads =
        static_cast<std::size_t>(args.getInt("threads", 1));
    cfg.min_cluster_size =
        static_cast<std::size_t>(args.getInt("min-cluster-size", 2));
    cfg.max_decode_retries =
        static_cast<std::size_t>(args.getInt("retries", 0));

    PipelineModules mods;
    mods.encoder = &encoder;
    mods.decoder = &decoder;
    mods.channel = channel.get();
    mods.clusterer = &clusterer;
    mods.reconstructor = recon.get();
    // The NW reconstructor doubles as the recovery fallback when the
    // primary algorithm is something else.
    NwConsensusReconstructor fallback;
    if (cfg.max_decode_retries > 0 && args.get("algo", "nw") != "nw")
        mods.fallback_reconstructor = &fallback;

    cfg.faults = faultPlan(args, codec_cfg.index_nt);

    Pipeline pipeline(mods, cfg);

    const std::string metrics_path = args.get("metrics-json", "");
    const std::string trace_path = args.get("trace-json", "");
    // A run report without contention data answers "what" but not
    // "why"; arm lock-wait sampling whenever a report was asked for,
    // unless DNASTORE_PROFILE_LOCKS was set explicitly (env wins either
    // way, including an explicit 0).
    if (!metrics_path.empty() &&
        std::getenv("DNASTORE_PROFILE_LOCKS") == nullptr)
        obs::locktime::enable();
    obs::TraceSink trace_sink;
    if (!trace_path.empty())
        obs::installTraceSink(&trace_sink);
    const auto result = pipeline.run(data);
    if (!trace_path.empty()) {
        obs::installTraceSink(nullptr);
        if (!obs::writeChromeTrace(trace_sink, trace_path))
            std::cerr << "warning: could not write " << trace_path << "\n";
        else
            std::cout << "trace: " << trace_path << " ("
                      << trace_sink.size() << " events)\n";
    }
    if (!metrics_path.empty()) {
        RunInfo info;
        info["tool"] = "dnastore pipeline";
        info["channel"] = channel->name();
        info["clusterer"] = clusterer.name();
        info["reconstructor"] = recon->name();
        info["seed"] = std::to_string(cfg.seed);
        info["threads"] = std::to_string(cfg.num_threads);
        info["input_bytes"] = std::to_string(data.size());
        info["rs_n"] = std::to_string(codec_cfg.rs_n);
        info["rs_k"] = std::to_string(codec_cfg.rs_k);
        info["payload_nt"] = std::to_string(codec_cfg.payload_nt);
        if (!writeRunReport(metrics_path, result, info))
            std::cerr << "warning: could not write " << metrics_path << "\n";
        else
            std::cout << "metrics: " << metrics_path << "\n";
    }

    std::cout << "strands " << result.encoded_strands << ", reads "
              << result.reads << ", clusters " << result.clusters
              << " (" << result.dropped_clusters << " dropped, "
              << result.malformed_reads << " malformed reads)"
              << "\nclustering accuracy "
              << result.clustering_accuracy
              << ", perfect reconstructions "
              << result.perfect_reconstructions << "\nlatency: encode "
              << result.latency.encoding << "s, cluster "
              << result.latency.clustering << "s, reconstruct "
              << result.latency.reconstruction << "s, decode "
              << result.latency.decoding << "s\nstages: encoding "
              << stageStatusName(result.status.encoding) << ", simulation "
              << stageStatusName(result.status.simulation) << ", clustering "
              << stageStatusName(result.status.clustering)
              << ", reconstruction "
              << stageStatusName(result.status.reconstruction)
              << ", decoding " << stageStatusName(result.status.decoding)
              << "\n";
    if (cfg.faults.any()) {
        const auto &f = result.faults;
        std::cout << "faults injected: " << f.dropped_strands
                  << " strands dropped, " << f.truncated_reads
                  << " truncated, " << f.elongated_reads << " elongated, "
                  << f.corrupted_indices << " indices corrupted, "
                  << f.duplicate_conflicts << " duplicate conflicts, "
                  << f.garbage_reads << " garbage reads, "
                  << f.emptied_clusters << " clusters dropped, "
                  << f.merged_clusters << " merged\n";
    }
    for (const auto &error : result.errors)
        std::cout << "error [" << error.stage << "] " << error.message
                  << "\n";
    for (const auto &attempt : result.recovery_attempts)
        std::cout << "recovery: " << attempt.description << " -> "
                  << (attempt.ok ? "ok" : "failed") << " ("
                  << attempt.failed_rows << " rows failing)\n";
    std::cout << "decode " << (result.report.ok ? "OK" : "FAILED")
              << (result.recovered ? " (after recovery)" : "") << "\n";
    if (!result.report.data.empty())
        writeBinaryFile(requireOption(args, "out"), result.report.data);
    return result.report.ok && result.report.data == data ? 0 : 1;
}

archive::RetrievalConfig
retrievalConfig(const ArgParser &args)
{
    archive::RetrievalConfig cfg;
    if (args.get("channel", "iid") == "wetlab")
        cfg.channel = archive::RetrievalChannel::Wetlab;
    cfg.error_rate = args.getDouble("error-rate", cfg.error_rate);
    cfg.coverage = args.getDouble("coverage", cfg.coverage);
    cfg.seed = static_cast<std::uint64_t>(
        args.getInt("seed", static_cast<std::int64_t>(cfg.seed)));
    cfg.num_threads = static_cast<std::size_t>(args.getInt("threads", 1));
    cfg.max_decode_retries =
        static_cast<std::size_t>(args.getInt("retries", 1));
    return cfg;
}

/** Open --dir; on put, create it on demand with the CLI codec options. */
archive::OpenResult
openArchive(const ArgParser &args, bool create_if_missing)
{
    const std::string dir = requireOption(args, "dir");
    archive::OpenResult opened = archive::Archive::open(dir);
    if (opened.status == archive::ArchiveStatus::NotFound &&
        create_if_missing) {
        archive::ArchiveParams params;
        params.codec = codecConfig(args);
        params.max_shard_bytes = static_cast<std::uint64_t>(
            args.getInt("max-shard-bytes",
                        static_cast<std::int64_t>(params.max_shard_bytes)));
        return archive::Archive::create(dir, params);
    }
    return opened;
}

int
cmdArchivePut(const ArgParser &args)
{
    auto opened = openArchive(args, true);
    if (!opened.ok()) {
        std::cerr << "dnastore archive put: " << opened.error << "\n";
        return 1;
    }
    const auto data = readBinaryFile(requireOption(args, "in"));
    const auto result = opened.archive->put(
        requireOption(args, "name"), data,
        static_cast<std::size_t>(args.getInt("threads", 1)));
    if (!result.ok()) {
        std::cerr << "dnastore archive put: " << result.error << "\n";
        return 1;
    }
    std::cout << "stored '" << requireOption(args, "name") << "' ("
              << data.size() << " bytes) as object " << result.object_id
              << ": " << result.shards << " shard(s), " << result.strands
              << " tagged molecules; pool now "
              << opened.archive->poolSize() << " molecules\n";
    return 0;
}

int
cmdArchiveGet(const ArgParser &args)
{
    auto opened = openArchive(args, false);
    if (!opened.ok()) {
        std::cerr << "dnastore archive get: " << opened.error << "\n";
        return 1;
    }
    const std::string name = requireOption(args, "name");
    const auto result = opened.archive->get(name, retrievalConfig(args));
    for (std::size_t s = 0; s < result.shards.size(); ++s) {
        const auto &shard = result.shards[s];
        std::cout << "shard " << s << " (pair " << shard.pair_id << "): "
                  << (shard.ok ? "ok" : "FAILED") << ", " << shard.reads
                  << " reads, " << shard.clusters << " clusters"
                  << ", decoding "
                  << stageStatusName(shard.stages.decoding) << "\n";
        for (const auto &error : shard.errors)
            std::cout << "  error [" << error.stage << "] "
                      << error.message << "\n";
    }
    if (!result.ok()) {
        std::cerr << "dnastore archive get: " << result.error << "\n";
        return 1;
    }
    writeBinaryFile(requireOption(args, "out"), result.data);
    std::cout << "retrieved '" << name << "': " << result.data.size()
              << " bytes, " << result.shards.size()
              << " shard(s) decoded\n";
    return 0;
}

int
cmdArchiveLs(const ArgParser &args)
{
    const auto opened = openArchive(args, false);
    if (!opened.ok()) {
        std::cerr << "dnastore archive ls: " << opened.error << "\n";
        return 1;
    }
    if (args.getBool("json", false)) {
        // Canonical dnastore.archive_ls document — the same emitter the
        // server's LsOk reply uses, so scripts parse one schema.
        std::cout << archive::lsJson(*opened.archive) << "\n";
        return 0;
    }
    for (const auto &object : opened.archive->objects())
        std::cout << object.name << "\t" << object.size_bytes
                  << " bytes\t" << object.shards.size() << " shard(s)\n";
    std::cout << opened.archive->objects().size() << " object(s), "
              << opened.archive->poolSize() << " pooled molecules\n";
    return 0;
}

int
cmdArchiveStat(const ArgParser &args)
{
    const auto opened = openArchive(args, false);
    if (!opened.ok()) {
        std::cerr << "dnastore archive stat: " << opened.error << "\n";
        return 1;
    }
    const std::string name = requireOption(args, "name");
    const auto *object = opened.archive->stat(name);
    if (object == nullptr) {
        std::cerr << "dnastore archive stat: no object named '" << name
                  << "'\n";
        return 1;
    }
    if (args.getBool("json", false)) {
        std::cout << archive::statJson(*object) << "\n";
        return 0;
    }
    std::cout << "name: " << object->name << "\nid: " << object->id
              << "\nsize: " << object->size_bytes << " bytes\ncrc32: "
              << object->crc32_value << "\nshards:\n";
    for (const auto &shard : object->shards)
        std::cout << "  pair " << shard.pair_id << ": "
                  << shard.size_bytes << " bytes, " << shard.units
                  << " unit(s), " << shard.strands << " strands\n";
    return 0;
}

/**
 * Scrub (and with --repair, fix) an archive directory.  Exit code 0
 * when the archive is healthy after the run (warnings such as swept
 * staging files or dropped orphan records still exit 0 — the archive
 * is usable); 1 on Error-severity findings or an unusable archive.
 */
int
cmdArchiveFsck(const ArgParser &args)
{
    const std::string dir = requireOption(args, "dir");
    archive::FsckOptions options;
    options.repair = args.getBool("repair", false);
    options.deep = args.getBool("deep", false);
    options.retrieval = retrievalConfig(args);

    const archive::FsckReport report = archive::fsckArchive(dir, options);
    for (const auto &finding : report.findings) {
        std::cout << archive::fsckSeverityName(finding.severity) << ": "
                  << archive::fsckFindingKindName(finding.kind) << " ["
                  << finding.path << "] " << finding.detail;
        if (finding.repaired)
            std::cout << " (repaired)";
        else if (finding.repairable && !options.repair)
            std::cout << " (repairable; rerun with --repair)";
        std::cout << "\n";
    }
    std::cout << "fsck " << dir << ": " << report.objects << " object(s), "
              << report.shards << " shard(s), " << report.pool_records
              << " pool record(s); " << report.findings.size()
              << " finding(s), " << report.repaired_count
              << " repaired -> "
              << (report.clean()     ? "clean"
                  : report.healthy() ? "healthy"
                                     : "UNHEALTHY")
              << "\n";
    const std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
        if (!obs::writeTextFile(
                json_path, archive::fsckReportJson(report, dir, options)))
            std::cerr << "warning: could not write " << json_path << "\n";
        else
            std::cout << "report: " << json_path << "\n";
    }
    return report.healthy() ? 0 : 1;
}

void archiveUsage();

int
cmdArchive(int argc, char **argv)
{
    if (argc < 3) {
        archiveUsage();
        return 2;
    }
    const std::string verb = argv[2];
    const ArgParser args(argc - 2, argv + 2);
    if (verb == "put")
        return cmdArchivePut(args);
    if (verb == "get")
        return cmdArchiveGet(args);
    if (verb == "ls")
        return cmdArchiveLs(args);
    if (verb == "stat")
        return cmdArchiveStat(args);
    if (verb == "fsck")
        return cmdArchiveFsck(args);
    archiveUsage();
    return 2;
}

void clientUsage();

/**
 * `dnastore client <verb>` — drive a running dnastored over its wire
 * protocol (docs/SERVER.md).  Exit 0 on Ok, 1 on any typed failure
 * (the status name is printed to stderr), 2 on usage errors.
 */
int
cmdClient(int argc, char **argv)
{
    if (argc < 3) {
        clientUsage();
        return 2;
    }
    const std::string verb = argv[2];
    const ArgParser args(argc - 2, argv + 2);
    const std::uint16_t port =
        static_cast<std::uint16_t>(args.getInt("port", 0));
    if (port == 0) {
        std::cerr << "dnastore client: --port is required\n";
        return 2;
    }
    const int timeout_ms =
        static_cast<int>(args.getInt("timeout-ms", 30000));

    server::Client client;
    if (!client.connectTo(port, timeout_ms)) {
        std::cerr << "dnastore client: " << client.error() << "\n";
        return 1;
    }

    server::ClientReply reply;
    if (verb == "ping") {
        const std::string echo = args.get("echo", "dnastore");
        reply = client.ping({echo.begin(), echo.end()});
        if (reply.ok())
            std::cout << "pong: "
                      << std::string(reply.data.begin(),
                                     reply.data.end())
                      << "\n";
    } else if (verb == "put") {
        const auto data = readBinaryFile(requireOption(args, "in"));
        reply = client.put(requireOption(args, "name"), data);
        if (reply.ok())
            std::cout << reply.json << "\n";
    } else if (verb == "get") {
        reply = client.get(requireOption(args, "name"));
        if (reply.ok()) {
            writeBinaryFile(requireOption(args, "out"), reply.data);
            std::cout << "retrieved " << reply.data.size() << " bytes\n";
        }
    } else if (verb == "ls") {
        reply = client.ls();
        if (reply.ok())
            std::cout << reply.json << "\n";
    } else if (verb == "stat") {
        reply = client.stat(requireOption(args, "name"));
        if (reply.ok())
            std::cout << reply.json << "\n";
    } else {
        clientUsage();
        return 2;
    }

    if (!reply.ok()) {
        std::cerr << "dnastore client " << verb << ": "
                  << server::serverStatusName(reply.status)
                  << (reply.error.empty() ? "" : ": " + reply.error)
                  << "\n";
        return 1;
    }
    return 0;
}

void
clientUsage()
{
    std::cerr
        << "usage: dnastore client <verb> --port P [--timeout-ms N]\n"
           "verbs:\n"
           "  ping  [--echo TEXT]\n"
           "  put   --name NAME --in FILE\n"
           "  get   --name NAME --out FILE\n"
           "  ls\n"
           "  stat  --name NAME\n"
           "talks to a running dnastored on 127.0.0.1:P "
           "(see docs/SERVER.md)\n";
}

void
archiveUsage()
{
    std::cerr
        << "usage: dnastore archive <verb> --dir DIR [options]\n"
           "verbs:\n"
           "  put   --name NAME --in FILE [--threads N] "
           "[--max-shard-bytes N, codec opts on first put]\n"
           "  get   --name NAME --out FILE [--channel iid|wetlab "
           "--error-rate R --coverage C --seed S --threads N --retries N]\n"
           "  ls    [--json]    (canonical dnastore.archive_ls document)\n"
           "  stat  --name NAME [--json]  (dnastore.archive_stat)\n"
           "  fsck  [--repair] [--deep] [--json PATH] [get options for "
           "--deep decode runs]\n"
           "        audits manifest<->pool consistency and sweeps stale "
           "staging files;\n"
           "        --repair drops orphaned pool records and deletes "
           "stale temps,\n"
           "        --deep decodes every shard and CRC-verifies every "
           "object\n";
}

void
usage()
{
    std::cerr
        << "usage: dnastore <command> [options]\n"
           "commands:\n"
           "  encode      file -> strand list (--in, --out, codec opts)\n"
           "  simulate    strands -> noisy reads (--channel, --coverage)\n"
           "  cluster     reads -> clusters (--signature, --threads)\n"
           "  reconstruct clusters -> consensus (--algo, --length)\n"
           "  decode      consensus -> file (--units, codec opts)\n"
           "  pipeline    file -> file end to end\n"
           "  archive     multi-object DNA archive "
           "(put/get/ls/stat/fsck, see 'dnastore archive')\n"
           "  client      talk to a running dnastored "
           "(ping/put/get/ls/stat, see 'dnastore client')\n"
           "  report      diff two report/bench JSONs "
           "(perf-regression gate, see 'dnastore report diff')\n"
           "observability (pipeline): --metrics-json PATH writes the run\n"
           "report JSON; --trace-json PATH writes a Chrome trace\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    const ArgParser args(argc - 1, argv + 1);
    try {
        if (command == "encode")
            return cmdEncode(args);
        if (command == "simulate")
            return cmdSimulate(args);
        if (command == "cluster")
            return cmdCluster(args);
        if (command == "reconstruct")
            return cmdReconstruct(args);
        if (command == "decode")
            return cmdDecode(args);
        if (command == "pipeline")
            return cmdPipeline(args);
        if (command == "archive")
            return cmdArchive(argc, argv);
        if (command == "client")
            return cmdClient(argc, argv);
        if (command == "report")
            return tools::cmdReport(argc, argv);
        usage();
        return 2;
    } catch (const std::exception &error) {
        std::cerr << "dnastore " << command << ": " << error.what() << "\n";
        return 2;
    }
}
