#include "clustering/signature.hh"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "dna/base.hh"
#include "dna/qgram.hh"
#include "util/hot.hh"

namespace dnastore
{

namespace
{

/** 2-bit code of an upper-case A/C/G/T byte; 4 for every other byte. */
constexpr std::array<std::uint8_t, 256> kUpperBaseCode = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(4);
    for (std::uint8_t code = 0; code < 4; ++code)
        table[static_cast<unsigned char>(baseToChar(code))] = code;
    return table;
}();

} // namespace

const char *
signatureKindName(SignatureKind kind)
{
    return kind == SignatureKind::QGram ? "q-gram" : "w-gram";
}

SignatureScheme::SignatureScheme(SignatureKind kind, Rng &rng, std::size_t q,
                                 std::size_t num_grams)
    : SignatureScheme(kind, randomQGramSet(rng, q, num_grams))
{
}

SignatureScheme::SignatureScheme(SignatureKind kind,
                                 std::vector<std::string> probes_in)
    : kind_(kind), probes(std::move(probes_in))
{
    const std::size_t q = probes.empty() ? 0 : probes.front().size();
    if (q == 0 || q > kMaxQ)
        throw std::invalid_argument("SignatureScheme: no probes or bad q");
    if (kind_ == SignatureKind::QGram && probes.size() > kMaxQGramProbes)
        throw std::invalid_argument(
            "SignatureScheme: more q-gram probes than mask bits");
    probe_of_code.assign(std::size_t{1} << (2 * q), -1);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        std::size_t code = 0;
        for (const char c : probes[p]) {
            if (!isBaseChar(c))
                throw std::invalid_argument("SignatureScheme: non-ACGT probe");
            code = (code << 2) | charToCode(c);
        }
        if (probes[p].size() != q || probe_of_code[code] >= 0)
            throw std::invalid_argument(
                "SignatureScheme: probes must be distinct, of one length");
        probe_of_code[code] = static_cast<std::int32_t>(p);
    }
}

SignatureTable::SignatureTable(const SignatureScheme &scheme_in,
                               std::size_t count)
    : scheme(scheme_in), dims(scheme_in.dimensions())
{
    if (scheme.kind() == SignatureKind::QGram)
        masks.assign(count, 0);
    else
        positions.assign(count * dims, -1);
}

DNASTORE_HOT void
SignatureTable::compute(std::size_t i, std::string_view read)
{
    // A table lookup per byte keeps random reads free of mispredicted
    // branches; q-gram presence is set without a branch (probe -1
    // shifts in nothing).
    const std::size_t q = scheme.probes.front().size();
    const std::size_t code_mask = scheme.probe_of_code.size() - 1;
    const bool qgram = scheme.kind() == SignatureKind::QGram;
    std::uint64_t mask = 0;
    std::int32_t *const first = qgram ? nullptr : positions.data() + i * dims;
    if (!qgram)
        std::fill(first, first + dims, -1);
    std::size_t code = 0;
    std::size_t run = 0; // ACGT bytes since the last restart
    for (std::size_t pos = 0; pos < read.size(); ++pos) {
        const std::uint8_t base =
            kUpperBaseCode[static_cast<unsigned char>(read[pos])];
        if (base > 3) {
            run = 0;
            continue;
        }
        code = ((code << 2) | base) & code_mask;
        if (++run < q)
            continue;
        const std::int32_t p = scheme.probe_of_code[code];
        if (qgram) {
            mask |= std::uint64_t{p >= 0} << (p & 63);
        } else if (p >= 0 && first[static_cast<std::size_t>(p)] < 0) {
            first[static_cast<std::size_t>(p)] =
                static_cast<std::int32_t>(pos + 1 - q);
        }
    }
    if (qgram)
        masks[i] = mask;
}

std::int32_t
SignatureTable::value(std::size_t i, std::size_t p) const
{
    if (scheme.kind() == SignatureKind::QGram)
        return static_cast<std::int32_t>((masks[i] >> p) & 1);
    return positions[i * dims + p];
}

} // namespace dnastore
