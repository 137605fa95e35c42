#include "codec/matrix_codec.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/assert.hh"
#include "util/crc32.hh"

namespace dnastore
{

namespace
{

/**
 * Publishes the decode tallies into the metrics registry on scope exit,
 * so every early return (bad framing, zero units) still reports.
 */
class DecodeMetricsGuard
{
  public:
    DecodeMetricsGuard(const DecodeReport &report, std::size_t strands)
        : report_(report), strands_(strands)
    {
    }

    DecodeMetricsGuard(const DecodeMetricsGuard &) = delete;
    DecodeMetricsGuard &operator=(const DecodeMetricsGuard &) = delete;

    ~DecodeMetricsGuard()
    {
        obs::MetricsRegistry &reg = obs::metrics();
        reg.counter("decoding.strands_total").add(strands_);
        reg.counter("decoding.rs_rows_total").add(report_.total_rows);
        reg.counter("decoding.rs_rows_failed_total")
            .add(report_.failed_rows);
        reg.counter("decoding.rs_symbols_corrected_total")
            .add(report_.corrected_errors);
        reg.counter("decoding.rs_erasures_total")
            .add(report_.erased_columns);
        reg.counter("decoding.malformed_strands_total")
            .add(report_.malformed_strands);
        reg.counter("decoding.conflicting_strands_total")
            .add(report_.conflicting_strands);
        reg.counter("decoding.bytes_total").add(report_.data.size());
    }

  private:
    const DecodeReport &report_;
    std::size_t strands_;
};

constexpr std::size_t kHeaderSize = 20;
constexpr std::uint8_t kMagic[4] = {'D', 'N', 'S', 'T'};
constexpr std::uint8_t kVersion = 1;

/** Serialise the stream header: magic, version, scheme, length, CRC. */
void
writeHeader(std::vector<std::uint8_t> &stream, LayoutScheme scheme,
            const std::vector<std::uint8_t> &data)
{
    stream.insert(stream.end(), kMagic, kMagic + 4);
    stream.push_back(kVersion);
    stream.push_back(static_cast<std::uint8_t>(scheme));
    stream.push_back(0);
    stream.push_back(0);
    std::uint64_t length = data.size();
    for (int b = 0; b < 8; ++b) {
        stream.push_back(static_cast<std::uint8_t>(length));
        length >>= 8;
    }
    std::uint32_t crc = crc32(data);
    for (int b = 0; b < 4; ++b) {
        stream.push_back(static_cast<std::uint8_t>(crc));
        crc >>= 8;
    }
}

struct ParsedHeader
{
    bool magic_ok = false;
    std::uint8_t version = 0;
    std::uint8_t scheme = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
};

ParsedHeader
parseHeader(const std::vector<std::uint8_t> &stream)
{
    ParsedHeader h;
    if (stream.size() < kHeaderSize)
        return h;
    h.magic_ok = std::equal(kMagic, kMagic + 4, stream.begin());
    h.version = stream[4];
    h.scheme = stream[5];
    for (int b = 7; b >= 0; --b)
        h.length = (h.length << 8) | stream[8 + static_cast<std::size_t>(b)];
    for (int b = 3; b >= 0; --b)
        h.crc = (h.crc << 8) | stream[16 + static_cast<std::size_t>(b)];
    return h;
}

} // namespace

const char *
layoutSchemeName(LayoutScheme scheme)
{
    switch (scheme) {
      case LayoutScheme::Baseline: return "baseline";
      case LayoutScheme::Gini: return "gini";
      case LayoutScheme::DNAMapper: return "dnamapper";
    }
    return "unknown";
}

void
MatrixCodecConfig::validate() const
{
    if (payload_nt == 0 || payload_nt % 4 != 0)
        throw std::invalid_argument(
            "MatrixCodecConfig: payload_nt must be a positive multiple of 4");
    if (index_nt == 0 || index_nt > 32)
        throw std::invalid_argument(
            "MatrixCodecConfig: index_nt must be in [1, 32]");
    if (rs_n == 0 || rs_n > 255)
        throw std::invalid_argument(
            "MatrixCodecConfig: rs_n must be in [1, 255]");
    if (rs_k == 0 || rs_k >= rs_n)
        throw std::invalid_argument(
            "MatrixCodecConfig: rs_k must be in [1, rs_n - 1]");
    if (!row_reliability_order.empty()) {
        if (row_reliability_order.size() != bytesPerMolecule())
            throw std::invalid_argument(
                "MatrixCodecConfig: row order must cover every row");
        std::vector<bool> seen(bytesPerMolecule(), false);
        for (std::size_t row : row_reliability_order) {
            if (row >= bytesPerMolecule() || seen[row])
                throw std::invalid_argument(
                    "MatrixCodecConfig: row order must be a permutation");
            seen[row] = true;
        }
    }
}

std::vector<std::size_t>
MatrixCodecConfig::effectiveRowOrder() const
{
    if (!row_reliability_order.empty())
        return row_reliability_order;
    // DBMA concentrates reconstruction errors in the middle of the
    // strand, so edge rows are most reliable.
    const std::size_t rows = bytesPerMolecule();
    std::vector<std::size_t> order(rows);
    std::iota(order.begin(), order.end(), 0);
    const double centre = (static_cast<double>(rows) - 1.0) / 2.0;
    std::stable_sort(order.begin(), order.end(),
                     [centre](std::size_t a, std::size_t b) {
                         const double da =
                             std::abs(static_cast<double>(a) - centre);
                         const double db =
                             std::abs(static_cast<double>(b) - centre);
                         return da > db;
                     });
    return order;
}

namespace detail
{

std::vector<std::size_t>
dnaMapperPermutation(std::size_t stream_size, std::size_t header_size,
                     std::size_t data_size,
                     const std::vector<std::uint32_t> &priorities,
                     const MatrixCodecConfig &cfg)
{
    // Stream positions sorted by (priority class, position); physical
    // slots sorted by (row reliability rank, slot).  The i-th most
    // important position lands in the i-th most reliable slot.
    const std::vector<std::size_t> row_order = cfg.effectiveRowOrder();
    std::vector<std::size_t> row_rank(row_order.size());
    for (std::size_t rank = 0; rank < row_order.size(); ++rank)
        row_rank[row_order[rank]] = rank;

    std::vector<std::size_t> positions(stream_size);
    std::iota(positions.begin(), positions.end(), 0);
    const std::size_t unit_bytes = cfg.unitDataBytes();
    const std::size_t per_unit = unit_bytes - header_size;
    auto priority_of = [&](std::size_t pos) -> std::uint64_t {
        // Each unit leads with a header replica: always most important.
        const std::size_t in_unit = pos % unit_bytes;
        if (in_unit < header_size)
            return 0;
        const std::size_t data_index =
            (pos / unit_bytes) * per_unit + (in_unit - header_size);
        if (data_index < data_size) {
            if (priorities.empty())
                return 1;
            return 1ULL + priorities[data_index];
        }
        return ~0ULL; // padding: least important
    };
    std::stable_sort(positions.begin(), positions.end(),
                     [&](std::size_t a, std::size_t b) {
                         return priority_of(a) < priority_of(b);
                     });

    const std::size_t rows = cfg.bytesPerMolecule();
    std::vector<std::size_t> slots(stream_size);
    std::iota(slots.begin(), slots.end(), 0);
    std::stable_sort(slots.begin(), slots.end(),
                     [&](std::size_t a, std::size_t b) {
                         return row_rank[a % rows] < row_rank[b % rows];
                     });

    std::vector<std::size_t> source_of(stream_size);
    for (std::size_t i = 0; i < stream_size; ++i)
        source_of[slots[i]] = positions[i];
    return source_of;
}

} // namespace detail

MatrixEncoder::MatrixEncoder(MatrixCodecConfig config)
    : cfg(std::move(config)),
      rs(cfg.rs_n, cfg.rs_k),
      randomizer(cfg.randomizer_seed),
      index_codec(cfg.index_nt)
{
    cfg.validate();
    if (cfg.unitDataBytes() <= kHeaderSize) {
        throw std::invalid_argument(
            "MatrixEncoder: unit too small for the header replica");
    }
}

std::string
MatrixEncoder::name() const
{
    return std::string("matrix-encoder/") + layoutSchemeName(cfg.scheme);
}

std::size_t
MatrixEncoder::unitsForSize(std::size_t data_size) const
{
    // Every unit carries its own header replica, so a unit holds
    // unitDataBytes() - kHeaderSize payload bytes.
    const std::size_t per_unit = cfg.unitDataBytes() - kHeaderSize;
    return std::max<std::size_t>(1, (data_size + per_unit - 1) / per_unit);
}

std::vector<Strand>
MatrixEncoder::encode(const std::vector<std::uint8_t> &data) const
{
    if (cfg.scheme == LayoutScheme::DNAMapper && !cfg.priorities.empty() &&
        cfg.priorities.size() != data.size()) {
        throw std::invalid_argument(
            "MatrixEncoder: priorities must match data length");
    }

    const std::size_t units = unitsForSize(data.size());
    const std::size_t rows = cfg.bytesPerMolecule();
    const std::size_t padded = units * cfg.unitDataBytes();
    if (units * cfg.rs_n - 1 > index_codec.maxIndex()) {
        throw std::invalid_argument(
            "MatrixEncoder: file too large for index width");
    }

    // Stream layout: every unit starts with its own replica of the
    // 20-byte header (a single header copy is a single point of failure
    // — one failed RS row could otherwise erase the file length),
    // followed by the unit's slice of the payload.
    std::vector<std::uint8_t> header;
    writeHeader(header, cfg.scheme, data);
    std::vector<std::uint8_t> stream(padded, 0);
    const std::size_t per_unit = cfg.unitDataBytes() - kHeaderSize;
    for (std::size_t u = 0; u < units; ++u) {
        const std::size_t base = u * cfg.unitDataBytes();
        std::copy(header.begin(), header.end(),
                  stream.begin() + static_cast<long>(base));
        const std::size_t lo = u * per_unit;
        const std::size_t hi = std::min(data.size(), lo + per_unit);
        if (lo < hi) {
            std::copy(data.begin() + static_cast<long>(lo),
                      data.begin() + static_cast<long>(hi),
                      stream.begin() + static_cast<long>(base + kHeaderSize));
        }
    }

    // With no priorities there is nothing to rank, and the decoder could
    // not reconstruct a data-length-dependent permutation anyway:
    // DNAMapper degenerates to Baseline (documented behaviour).
    if (cfg.scheme == LayoutScheme::DNAMapper && !cfg.priorities.empty()) {
        const auto source_of = detail::dnaMapperPermutation(
            padded, kHeaderSize, data.size(), cfg.priorities, cfg);
        std::vector<std::uint8_t> permuted(padded);
        for (std::size_t slot = 0; slot < padded; ++slot)
            permuted[slot] = stream[source_of[slot]];
        stream = std::move(permuted);
    }

    randomizer.apply(stream);

    std::vector<Strand> strands;
    strands.reserve(units * cfg.rs_n);
    std::vector<std::uint8_t> row_message(cfg.rs_k);
    std::vector<std::uint8_t> column(rows);
    for (std::size_t u = 0; u < units; ++u) {
        obs::Span unit_span("encoding/unit");
        // logical[r][c], row-major over rows.
        std::vector<std::uint8_t> logical(rows * cfg.rs_n, 0);
        const std::size_t base = u * cfg.unitDataBytes();
        for (std::size_t c = 0; c < cfg.rs_k; ++c)
            for (std::size_t r = 0; r < rows; ++r)
                logical[r * cfg.rs_n + c] = stream[base + c * rows + r];

        {
            obs::Span rs_span("encoding/rs_rows");
            for (std::size_t r = 0; r < rows; ++r) {
                std::copy_n(
                    logical.begin() + static_cast<long>(r * cfg.rs_n),
                    cfg.rs_k, row_message.begin());
                const auto codeword = rs.encode(row_message);
                for (std::size_t c = cfg.rs_k; c < cfg.rs_n; ++c)
                    logical[r * cfg.rs_n + c] = codeword[c];
            }
        }

        for (std::size_t c = 0; c < cfg.rs_n; ++c) {
            for (std::size_t pr = 0; pr < rows; ++pr) {
                // Gini stores logical row (pr - c) mod rows at physical
                // row pr, spreading each codeword across all strand
                // positions.
                const std::size_t lr = cfg.scheme == LayoutScheme::Gini
                    ? (pr + rows - (c % rows)) % rows
                    : pr;
                column[pr] = logical[lr * cfg.rs_n + c];
            }
            const std::uint64_t index =
                static_cast<std::uint64_t>(u) * cfg.rs_n + c;
            strands.push_back(index_codec.encode(index) +
                              strand::fromBytes(column));
            DNASTORE_DCHECK(strands.back().size() == cfg.strandLength(),
                            "emitted strand length must match the "
                            "configured geometry");
        }
    }
    DNASTORE_ASSERT(strands.size() == units * cfg.rs_n,
                    "encoder must emit exactly rs_n strands per unit");
    obs::MetricsRegistry &reg = obs::metrics();
    reg.counter("encoding.units_total").add(units);
    reg.counter("encoding.strands_total").add(strands.size());
    reg.counter("encoding.bytes_total").add(data.size());
    return strands;
}

MatrixDecoder::MatrixDecoder(MatrixCodecConfig config)
    : cfg(std::move(config)),
      rs(cfg.rs_n, cfg.rs_k),
      randomizer(cfg.randomizer_seed),
      index_codec(cfg.index_nt)
{
    cfg.validate();
    if (cfg.unitDataBytes() <= kHeaderSize) {
        throw std::invalid_argument(
            "MatrixDecoder: unit too small for the header replica");
    }
}

std::string
MatrixDecoder::name() const
{
    return std::string("matrix-decoder/") + layoutSchemeName(cfg.scheme);
}

std::size_t
MatrixDecoder::inferUnits(
    const std::vector<std::vector<std::vector<std::uint8_t>>> &units_seen)
    const
{
    // Trust the highest unit id that holds a meaningful share of its
    // expected molecules; a lone corrupted index should not inflate the
    // file size.
    const std::size_t quorum = std::max<std::size_t>(1, cfg.rs_n / 4);
    std::size_t best = 0;
    for (std::size_t u = 0; u < units_seen.size(); ++u) {
        std::size_t present = 0;
        for (const auto &column : units_seen[u])
            present += !column.empty();
        if (present >= quorum)
            best = u + 1;
    }
    if (best == 0 && !units_seen.empty())
        best = units_seen.size();
    return best;
}

DecodeReport
MatrixDecoder::decode(const std::vector<Strand> &strands,
                      std::size_t expected_units) const
{
    DecodeReport report;
    const DecodeMetricsGuard metrics_guard(report, strands.size());
    const std::size_t rows = cfg.bytesPerMolecule();

    // Group payload candidates by global column index.
    obs::Span group_span("decoding/group_candidates");
    std::map<std::uint64_t, std::vector<std::vector<std::uint8_t>>>
        candidates;
    for (const Strand &s : strands) {
        // Reject anything the fault injector (or a real sequencer) can
        // produce — zero-length reads, wrong lengths, non-ACGT bases —
        // without throwing: garbage is counted, never fatal.
        if (s.empty() || s.size() != cfg.strandLength()) {
            ++report.malformed_strands;
            continue;
        }
        const auto index = index_codec.decode(s);
        if (!index) {
            ++report.malformed_strands;
            continue;
        }
        auto payload = strand::tryToBytes(s.substr(cfg.index_nt));
        if (!payload) {
            ++report.malformed_strands;
            continue;
        }
        DNASTORE_DCHECK(payload->size() == rows,
                        "accepted payload must span bytesPerMolecule() "
                        "matrix rows");
        candidates[*index].push_back(std::move(*payload));
    }

    // Organise candidates into units[u][c] and resolve duplicates with a
    // per-byte majority vote.
    std::size_t max_unit = expected_units;
    if (max_unit == 0) {
        for (const auto &[index, list] : candidates)
            max_unit = std::max<std::size_t>(
                max_unit, static_cast<std::size_t>(index / cfg.rs_n) + 1);
    }
    std::vector<std::vector<std::vector<std::uint8_t>>> units(
        max_unit,
        std::vector<std::vector<std::uint8_t>>(cfg.rs_n));
    for (auto &[index, list] : candidates) {
        const std::size_t u = static_cast<std::size_t>(index / cfg.rs_n);
        const std::size_t c = static_cast<std::size_t>(index % cfg.rs_n);
        if (u >= max_unit) {
            report.malformed_strands += list.size();
            continue;
        }
        if (list.size() == 1) {
            units[u][c] = std::move(list.front());
            continue;
        }
        std::vector<std::uint8_t> consensus(rows, 0);
        for (std::size_t r = 0; r < rows; ++r) {
            std::map<std::uint8_t, std::size_t> votes;
            for (const auto &candidate : list)
                ++votes[candidate[r]];
            std::uint8_t best_byte = 0;
            std::size_t best_votes = 0;
            for (const auto &[byte, count] : votes) {
                if (count > best_votes) {
                    best_votes = count;
                    best_byte = byte;
                }
            }
            consensus[r] = best_byte;
        }
        for (const auto &candidate : list)
            report.conflicting_strands += candidate != consensus;
        units[u][c] = std::move(consensus);
    }
    group_span.end();

    const std::size_t num_units =
        expected_units > 0 ? expected_units : inferUnits(units);
    if (num_units == 0)
        return report;

    // Row-by-row RS decoding with missing columns as erasures.
    std::vector<std::uint8_t> stream(num_units * cfg.unitDataBytes(), 0);
    report.total_rows = num_units * rows;
    for (std::size_t u = 0; u < num_units; ++u) {
        obs::Span unit_span("decoding/unit");
        std::vector<std::size_t> missing;
        for (std::size_t c = 0; c < cfg.rs_n; ++c)
            if (u >= units.size() || units[u][c].empty())
                missing.push_back(c);
        report.erased_columns += missing.size();

        std::vector<std::uint8_t> codeword(cfg.rs_n);
        for (std::size_t r = 0; r < rows; ++r) {
            obs::Span row_span("decoding/rs_row");
            for (std::size_t c = 0; c < cfg.rs_n; ++c) {
                if (u >= units.size() || units[u][c].empty()) {
                    codeword[c] = 0;
                    continue;
                }
                const std::size_t pr = cfg.scheme == LayoutScheme::Gini
                    ? (r + c) % rows
                    : r;
                codeword[c] = units[u][c][pr];
            }
            const auto result = rs.decode(codeword, missing);
            if (result.ok) {
                report.corrected_errors += result.errors;
            } else {
                ++report.failed_rows;
                report.failed_row_ids.emplace_back(u, r);
            }
            const std::size_t base = u * cfg.unitDataBytes();
            for (std::size_t c = 0; c < cfg.rs_k; ++c)
                stream[base + c * rows + r] = codeword[c];
        }
    }

    randomizer.apply(stream);

    const std::size_t per_unit = cfg.unitDataBytes() - kHeaderSize;
    if (cfg.scheme == LayoutScheme::DNAMapper && !cfg.priorities.empty()) {
        const std::size_t data_size = cfg.priorities.size();
        if (data_size <= num_units * per_unit) {
            const auto source_of = detail::dnaMapperPermutation(
                stream.size(), kHeaderSize, data_size, cfg.priorities, cfg);
            std::vector<std::uint8_t> unpermuted(stream.size());
            for (std::size_t slot = 0; slot < stream.size(); ++slot)
                unpermuted[source_of[slot]] = stream[slot];
            stream = std::move(unpermuted);
        }
    }

    // Reassemble the header by byte-wise majority over the per-unit
    // replicas, then parse it.
    std::vector<std::uint8_t> header_bytes(kHeaderSize, 0);
    for (std::size_t b = 0; b < kHeaderSize; ++b) {
        std::map<std::uint8_t, std::size_t> votes;
        for (std::size_t u = 0; u < num_units; ++u)
            ++votes[stream[u * cfg.unitDataBytes() + b]];
        std::size_t best_votes = 0;
        for (const auto &[byte, count] : votes) {
            if (count > best_votes) {
                best_votes = count;
                header_bytes[b] = byte;
            }
        }
    }
    const ParsedHeader header = parseHeader(header_bytes);
    if (!header.magic_ok || header.version != kVersion ||
        header.length > num_units * per_unit) {
        return report; // unrecoverable framing: report.ok stays false
    }

    report.data.reserve(header.length);
    for (std::size_t u = 0; u < num_units && report.data.size() <
             header.length; ++u) {
        const std::size_t base = u * cfg.unitDataBytes() + kHeaderSize;
        const std::size_t take = std::min<std::uint64_t>(
            per_unit, header.length - report.data.size());
        report.data.insert(report.data.end(),
                           stream.begin() + static_cast<long>(base),
                           stream.begin() + static_cast<long>(base + take));
    }
    report.ok = crc32(report.data) == header.crc;
    return report;
}

} // namespace dnastore
