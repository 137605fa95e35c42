/**
 * @file
 * google-benchmark microbenchmarks for the computational kernels the
 * pipeline's complexity analysis rests on (paper Section IX-A):
 * edit-distance variants, signature computation and comparison,
 * Reed-Solomon coding, matrix encoding, alignment, reconstruction, the GRU step and
 * wetlab read preprocessing.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "clustering/signature.hh"
#include "codec/matrix_codec.hh"
#include "dna/align.hh"
#include "dna/distance.hh"
#include "dna/strand.hh"
#include "ecc/reed_solomon.hh"
#include "nn/gru.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "wetlab/preprocess.hh"

using namespace dnastore;

namespace
{

std::vector<Strand>
noisyPair(std::uint64_t seed, std::size_t len, double error)
{
    Rng rng(seed);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(error));
    const Strand s = strand::random(rng, len);
    return {channel.transmit(s, rng), channel.transmit(s, rng)};
}

void
BM_LevenshteinFull(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    const auto pair = noisyPair(1, len, 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(levenshtein(pair[0], pair[1]));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LevenshteinFull)->Range(32, 512)->Complexity();

void
BM_LevenshteinBanded(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    const auto pair = noisyPair(2, len, 0.06);
    const std::size_t cutoff = len / 5;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            boundedLevenshtein(pair[0], pair[1], cutoff));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LevenshteinBanded)->Range(32, 512)->Complexity();

void
BM_LevenshteinMyers(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    const auto pair = noisyPair(12, len, 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(myersLevenshtein(pair[0], pair[1]));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LevenshteinMyers)->Range(32, 512)->Complexity();

void
BM_WithinEditDistance(benchmark::State &state)
{
    // The clustering's gray-zone check at the table3 shape: 132-nt
    // reads at 6% error.  Arg 0: two reads of one strand (0) or reads
    // of two strands (1).  Arg 1: the threshold k; table3 uses 28, the
    // one-word band reaches 31 and 32 takes the blocked kernel.
    const std::size_t len = 132;
    const auto threshold = static_cast<std::size_t>(state.range(1));
    const auto same = noisyPair(13, len, 0.06);
    const auto other = noisyPair(14, len, 0.06);
    const Strand &b = state.range(0) == 0 ? same[1] : other[0];
    for (auto _ : state)
        benchmark::DoNotOptimize(withinEditDistance(same[0], b, threshold));
}
BENCHMARK(BM_WithinEditDistance)
    ->ArgsProduct({{0, 1}, {8, 16, 28, 31, 32}});

void
BM_SignatureCompute(benchmark::State &state)
{
    Rng rng(3);
    const auto kind = state.range(0) == 0 ? SignatureKind::QGram
                                          : SignatureKind::WGram;
    SignatureScheme scheme(kind, rng, 4, 60);
    SignatureTable table(scheme, 1);
    const Strand read = strand::random(rng, 132);
    for (auto _ : state) {
        table.compute(0, read);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SignatureCompute)->Arg(0)->Arg(1);

void
BM_SignatureDistance(benchmark::State &state)
{
    Rng rng(4);
    const auto kind = state.range(0) == 0 ? SignatureKind::QGram
                                          : SignatureKind::WGram;
    SignatureScheme scheme(kind, rng, 4, 60);
    SignatureTable table(scheme, 2);
    table.compute(0, strand::random(rng, 132));
    table.compute(1, strand::random(rng, 132));
    for (auto _ : state)
        benchmark::DoNotOptimize(table.distance(0, 1));
}
BENCHMARK(BM_SignatureDistance)->Arg(0)->Arg(1);

/** A random k-symbol message for an RS(n, k) benchmark. */
std::vector<std::uint8_t>
rsMessage(const ReedSolomon &rs, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> message(rs.k());
    for (auto &b : message)
        b = static_cast<std::uint8_t>(rng.below(256));
    return message;
}

void
BM_ReedSolomonEncode(benchmark::State &state)
{
    // Args: n, k.  (60, 40) is Table III's geometry, (96, 64) the
    // archive's (every put re-encodes the manifest mirror with it).
    const ReedSolomon rs(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::size_t>(state.range(1)));
    const auto message = rsMessage(rs, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(rs.encode(message));
}
BENCHMARK(BM_ReedSolomonEncode)
    ->Args({60, 40})
    ->Args({96, 64})
    ->Args({255, 223});

void
BM_ReedSolomonDecode(benchmark::State &state)
{
    // Args: n, k, symbol errors.  A clean row costs its syndromes only;
    // an erroneous one adds Sugiyama, Chien and Forney.
    const ReedSolomon rs(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::size_t>(state.range(1)));
    const auto errors = static_cast<std::size_t>(state.range(2));
    Rng rng(6);
    auto corrupted = rs.encode(rsMessage(rs, 6));
    for (const auto pos : rng.sampleIndices(rs.n(), errors))
        corrupted[pos] ^= 0x5A;
    auto codeword = corrupted;
    for (auto _ : state) {
        codeword = corrupted;
        benchmark::DoNotOptimize(rs.decode(codeword));
    }
}
BENCHMARK(BM_ReedSolomonDecode)
    ->Args({60, 40, 0})
    ->Args({60, 40, 2})
    ->Args({96, 64, 0})
    ->Args({96, 64, 2})
    ->Args({255, 223, 16});

void
BM_MatrixEncode(benchmark::State &state)
{
    // 14 KB, about the manifest of a 128-object archive, at the
    // archive's default geometry (RS(96, 64) rows, 120-nt payloads,
    // 12-nt indexes): what every put re-encodes for the pair-0 mirror.
    const MatrixEncoder encoder{MatrixCodecConfig{}};
    Rng rng(7);
    std::vector<std::uint8_t> data(14 * 1000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(encoder.encode(data));
}
BENCHMARK(BM_MatrixEncode)->Unit(benchmark::kMicrosecond);

void
BM_GlobalAlign(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    const auto pair = noisyPair(7, len, 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(globalAlign(pair[0], pair[1]));
}
BENCHMARK(BM_GlobalAlign)->Range(32, 256);

void
BM_Reconstruct(benchmark::State &state)
{
    // Args: algorithm (0 BMA, 1 DBMA, 2 NW), coverage, strand length.
    // Each iteration reconstructs the next of 16 clusters, so one
    // cluster's luck (a read NW has to realign wider, say) is averaged.
    Rng rng(8);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.06));
    const auto coverage = static_cast<std::size_t>(state.range(1));
    const auto length = static_cast<std::size_t>(state.range(2));
    std::vector<std::vector<Strand>> clusters(16);
    for (std::vector<Strand> &cluster : clusters) {
        const Strand original = strand::random(rng, length);
        for (std::size_t c = 0; c < coverage; ++c)
            cluster.push_back(channel.transmit(original, rng));
    }

    BmaReconstructor bma;
    DoubleSidedBmaReconstructor dbma;
    NwConsensusReconstructor nw;
    const Reconstructor *algo = state.range(0) == 0
        ? static_cast<const Reconstructor *>(&bma)
        : state.range(0) == 1
            ? static_cast<const Reconstructor *>(&dbma)
            : static_cast<const Reconstructor *>(&nw);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(algo->reconstruct(clusters[next], length));
        next = (next + 1) % clusters.size();
    }
}
BENCHMARK(BM_Reconstruct)
    ->Args({0, 10, 120})
    ->Args({1, 10, 120})
    ->Args({2, 10, 120})
    ->Args({0, 50, 120})
    ->Args({1, 50, 120})
    ->Args({2, 50, 120})
    // Table III geometry: 132-nt strands at coverage 50, and at 32, the
    // number of reads NW consensus aligns by default.
    ->Args({2, 32, 132})
    ->Args({2, 50, 132});

void
BM_GruStep(benchmark::State &state)
{
    const auto hidden = static_cast<std::size_t>(state.range(0));
    Rng rng(9);
    nn::GruCell cell(4, hidden, "bench");
    cell.init(rng, 0.2f);
    nn::Vec x(4, 0.5f);
    nn::Vec h(hidden, 0.1f);
    nn::GruCache cache;
    for (auto _ : state)
        benchmark::DoNotOptimize(cell.forward(x, h, cache));
}
BENCHMARK(BM_GruStep)->Arg(32)->Arg(64)->Arg(128);

void
BM_PreprocessShard(benchmark::State &state)
{
    // One archive shard's reads: 96 strands of 132-nt payload at 12
    // reads each, through a 3% i.i.d. channel, half of them reverse
    // complemented; primers located at max_edit 5.
    Rng rng(10);
    const PrimerPair pair = PrimerLibrary::design(rng, 2).pairFor(0);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.03));
    std::vector<Strand> reads;
    for (int s = 0; s < 96; ++s) {
        const Strand tagged = attachPrimers(pair, strand::random(rng, 132));
        for (int r = 0; r < 12; ++r) {
            Strand read = channel.transmit(tagged, rng);
            if (r % 2 == 1)
                read = strand::reverseComplement(read);
            reads.push_back(std::move(read));
        }
    }
    WetlabPreprocessConfig config;
    config.primer_max_edit = 5;
    for (auto _ : state)
        benchmark::DoNotOptimize(preprocessReads(reads, pair, config));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(reads.size()));
}
BENCHMARK(BM_PreprocessShard)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
