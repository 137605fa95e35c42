/**
 * @file
 * The table3_* workloads: the paper's Table III pipeline (payload
 * 120 nt, RS(60,40), 6% i.i.d. errors, Poisson coverage 50, q-gram
 * Rashtchian clustering, min_cluster_size 2) run end to end on one
 * seeded file, with NW consensus (reconstruction-bound) or DBMA
 * (clustering-bound) trace reconstruction.
 *
 * Every run, traced or not, times one Pipeline::run.  A traced run also
 * installs the obs trace sink and takes the stage times from the
 * pipeline's own stage spans, and the work counts from the metrics
 * registry.
 */

#include <memory>
#include <vector>

#include "clustering/clusterer.hh"
#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "e2e/bench.hh"
#include "obs/metrics.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "util/random.hh"

namespace dnastore::bench
{

namespace
{

constexpr double kErrorRate = 0.06;
constexpr std::size_t kThreads = 4;

/** Modules and input of one table3 workload (built during set-up). */
struct Table3Fixture
{
    MatrixCodecConfig codec;
    std::unique_ptr<MatrixEncoder> encoder;
    std::unique_ptr<MatrixDecoder> decoder;
    std::unique_ptr<IidChannel> channel;
    std::unique_ptr<Reconstructor> reconstructor;
    RashtchianClustererConfig cluster_cfg;
    PipelineConfig pipeline_cfg;
    std::vector<std::uint8_t> data;
};

std::unique_ptr<Table3Fixture>
buildFixture(const Options &options, bool nwa)
{
    auto fx = std::make_unique<Table3Fixture>();
    fx->codec.payload_nt = 120;
    fx->codec.index_nt = 12;
    fx->codec.rs_n = 60;
    fx->codec.rs_k = 40;
    fx->encoder = std::make_unique<MatrixEncoder>(fx->codec);
    fx->decoder = std::make_unique<MatrixDecoder>(fx->codec);
    fx->channel = std::make_unique<IidChannel>(
        IidChannelConfig::fromTotalErrorRate(kErrorRate));
    if (nwa)
        fx->reconstructor = std::make_unique<NwConsensusReconstructor>();
    else
        fx->reconstructor = std::make_unique<DoubleSidedBmaReconstructor>();

    // The clusterer and the simulated sequencing keep their own fixed
    // seeds, as in bench/table3_pipeline_latency; --seed makes the file.
    fx->cluster_cfg = RashtchianClustererConfig::forErrorRate(
        kErrorRate, fx->codec.strandLength());
    fx->cluster_cfg.num_threads = kThreads;
    fx->pipeline_cfg.coverage = CoverageModel(
        options.smoke ? 10.0 : 50.0, CoverageDistribution::Poisson);
    fx->pipeline_cfg.num_threads = kThreads;
    fx->pipeline_cfg.seed = 7;
    fx->pipeline_cfg.min_cluster_size = 2;

    Rng rng(options.seed);
    fx->data.resize(options.smoke ? 2000 : 20000);
    for (std::uint8_t &b : fx->data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return fx;
}

/** One Pipeline::run with a fresh clusterer (its RNG is stateful). */
PipelineResult
runPipeline(const Table3Fixture &fx)
{
    RashtchianClusterer clusterer(fx.cluster_cfg);
    Pipeline pipeline({fx.encoder.get(), fx.decoder.get(), fx.channel.get(),
                       &clusterer, fx.reconstructor.get()},
                      fx.pipeline_cfg);
    return pipeline.run(fx.data);
}

bool
roundTrips(const PipelineResult &result, const Table3Fixture &fx)
{
    return result.report.ok && result.report.data == fx.data;
}

} // namespace

void
runTable3(const Options &options, Report &report)
{
    const bool nwa = options.workload == "table3_nwa_c50";
    const std::size_t setups = options.smoke ? 1 : 3;
    const std::size_t min_runs = options.smoke ? 1 : 3;

    // Set-up: build modules and input, then one warm-up Pipeline::run
    // (the first run in a process pays for page faults and allocator
    // growth).  Repeated; the median is reported.
    std::vector<double> setup_times;
    std::unique_ptr<Table3Fixture> fx;
    PipelineResult reference;
    for (std::size_t i = 0; i < setups; ++i) {
        const double t0 = nowSeconds();
        fx = buildFixture(options, nwa);
        reference = runPipeline(*fx);
        setup_times.push_back(nowSeconds() - t0);
        if (!roundTrips(reference, *fx))
            report.fail("warm-up Pipeline::run did not round-trip");
    }
    report.set("setup_s", median(setup_times), "s");
    report.params["file_bytes"] = std::to_string(fx->data.size());
    report.params["reconstructor"] = fx->reconstructor->name();
    report.params["coverage"] =
        std::to_string(fx->pipeline_cfg.coverage.mean());
    report.params["threads"] = std::to_string(kThreads);

    std::vector<double> latencies;
    PipelineResult last;
    const TraceSinkScope sink(options);
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    while (latencies.size() < min_runs ||
           nowSeconds() - t0 < options.seconds) {
        ++report.attempted;
        const double r0 = nowSeconds();
        last = runPipeline(*fx);
        const double r1 = nowSeconds();
        latencies.push_back(r1 - r0);
        if (!roundTrips(last, *fx))
            report.fail("Pipeline::run did not round-trip the file");
        if (options.traced())
            options.spans->add("core/run", r0, r1, 0, report.attempted);
    }
    const double wall = nowSeconds() - t0;
    const double cpu = processCpuSeconds() - cpu0;
    const obs::MetricsSnapshot delta = obs::metrics().snapshot().delta(before);
    const double runs = static_cast<double>(latencies.size());

    report.set("latency_p50_s", median(latencies), "s");
    report.set("latency_p90_s", nearestRank(latencies, 0.9), "s");
    report.set("cpu_s_per_op", cpu / runs, "s");
    report.set("peak_rss_mib", peakRssMib(), "MiB");
    report.setExact("stored_bytes_per_user_byte",
                    static_cast<double>(reference.encoded_strands *
                                        fx->codec.strandLength()) /
                        static_cast<double>(fx->data.size()),
                    "ratio");
    report.params["runs"] = std::to_string(latencies.size());
    if (!options.traced())
        return;

    // Every run has the same seeds, so its counts repeat exactly.
    setStageMetrics(report, options.obs_sink->events());
    setCountMetrics(report, delta, true);
    report.setExact("clustering.accuracy", last.clustering_accuracy, "ratio");
    report.setExact("reconstruction.perfect_frac",
                    last.perfect_reconstructions, "ratio");
    setPoolMetrics(report, delta);
    report.set("proc.cpu_util", cpu / wall, "ratio");
}

} // namespace dnastore::bench
