#include "clustering/signature.hh"

#include <cstdlib>
#include <stdexcept>

#include "dna/base.hh"
#include "dna/qgram.hh"
#include "util/hot.hh"

namespace dnastore
{

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

DNASTORE_HOT Signature
SignatureScheme::compute(const std::string &read) const
{
    // First position of every probe, -1 while unseen.  q-gram keeps
    // only presence; w-gram keeps the positions (paper Section VI-C).
    Signature sig;
    sig.values.assign(probes.size(), -1);
    const std::size_t q = probes.front().size();
    const std::size_t mask = probe_of_code.size() - 1;
    std::size_t code = 0;
    std::size_t run = 0; // ACGT bytes since the last restart
    for (std::size_t i = 0; i < read.size(); ++i) {
        if (!isBaseChar(read[i])) {
            run = 0;
            continue;
        }
        code = ((code << 2) | charToCode(read[i])) & mask;
        if (++run < q)
            continue;
        const std::int32_t p = probe_of_code[code];
        if (p >= 0 && sig.values[static_cast<std::size_t>(p)] < 0)
            sig.values[static_cast<std::size_t>(p)] =
                static_cast<std::int32_t>(i + 1 - q);
    }
    if (kind_ == SignatureKind::QGram) {
        for (std::int32_t &v : sig.values)
            v = v >= 0 ? 1 : 0;
    }
    return sig;
}

DNASTORE_HOT std::int64_t
SignatureScheme::distance(const Signature &a, const Signature &b) const
{
    if (a.values.size() != b.values.size())
        throw std::invalid_argument("SignatureScheme: dimension mismatch");
    std::int64_t total = 0;
    if (kind_ == SignatureKind::QGram) {
        for (std::size_t i = 0; i < a.values.size(); ++i)
            total += a.values[i] != b.values[i];
    } else {
        for (std::size_t i = 0; i < a.values.size(); ++i)
            total += std::abs(static_cast<std::int64_t>(a.values[i]) -
                              static_cast<std::int64_t>(b.values[i]));
    }
    return total;
}

} // namespace dnastore
