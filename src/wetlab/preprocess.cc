#include "wetlab/preprocess.hh"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

#include "dna/base.hh"
#include "obs/span.hh"

namespace dnastore
{

namespace
{

/** Where a primer sits at one end of a read. */
struct PrimerEnd
{
    /** Distance to the read's first min(n, |primer|) bases. */
    std::size_t prefix_distance = 0;
    std::size_t cut = 0; //!< First cut with the least distance.
    std::size_t cut_distance = std::numeric_limits<std::size_t>::max();
};

/**
 * One edit-distance DP of a primer against the first
 * w = min(n, |primer| + max_edit) bases of a read; reverse iterators
 * match from the read's last base backwards.  The DP's last row holds
 * lev(primer, read[0, c)) for every c <= w, which gives both the
 * orientation score at c = min(n, |primer|) and the first least-distance
 * cut in [|primer| - max_edit, w].  Values are exact, not capped at
 * max_edit + 1: every caller compares a value <= max_edit with another,
 * so the decisions are the same.
 */
template <class It>
PrimerEnd
locatePrimer(It primer, std::size_t len, It read, std::size_t n,
             std::size_t max_edit, std::vector<std::size_t> &row)
{
    const std::size_t w = std::min(n, len + max_edit);
    row.resize(w + 1);
    std::iota(row.begin(), row.end(), std::size_t{0});
    for (std::size_t i = 1; i <= len; ++i, ++primer) {
        const char p = *primer;
        std::size_t diag = row[0];
        row[0] = i;
        It base = read;
        for (std::size_t c = 1; c <= w; ++c, ++base) {
            const std::size_t up = row[c];
            row[c] = std::min({diag + (p != *base), up + 1, row[c - 1] + 1});
            diag = up;
        }
    }
    PrimerEnd end;
    end.prefix_distance = row[std::min(n, len)];
    for (std::size_t c = len > max_edit ? len - max_edit : 0; c <= w; ++c) {
        if (row[c] < end.cut_distance) {
            end.cut_distance = row[c];
            end.cut = c;
        }
    }
    return end;
}

const Strand &
sequenceOf(const Strand &read)
{
    return read;
}

const Strand &
sequenceOf(const FastqRecord &record)
{
    return record.sequence;
}

/**
 * preprocessReads over bare reads or FASTQ records; a record's read is
 * used in place, not copied out first.
 */
template <class Record>
PreprocessResult
preprocessRecords(const std::vector<Record> &records, const PrimerPair &pair,
                  const WetlabPreprocessConfig &config)
{
    obs::Span span("wetlab/preprocess");
    const std::size_t max_edit = config.primer_max_edit;
    const Strand &fwd = pair.forward;
    const Strand &rev = pair.reverse;
    const Strand rc_fwd = strand::reverseComplement(fwd);
    const Strand rc_rev = strand::reverseComplement(rev);
    std::vector<std::size_t> row;

    PreprocessResult result;
    result.total = records.size();
    result.reads.reserve(records.size());
    for (const Record &record : records) {
        const Strand &raw = sequenceOf(record);
        const std::size_t n = raw.size();
        if (n < fwd.size()) {
            ++result.rejected;
            continue;
        }
        // A forward read starts with the forward primer, a reverse one
        // with rc(reverse).  lev(rc x, y) = lev(x, rc y), so the second
        // DP also gives the flipped read's reverse-primer cut.
        const PrimerEnd as_fwd = locatePrimer(fwd.begin(), fwd.size(),
                                              raw.begin(), n, max_edit, row);
        const PrimerEnd as_rev = locatePrimer(
            rc_rev.begin(), rc_rev.size(), raw.begin(), n, max_edit, row);
        if (as_fwd.prefix_distance > max_edit &&
            as_rev.prefix_distance > max_edit) {
            ++result.rejected;
            continue;
        }
        const bool flip = as_fwd.prefix_distance > as_rev.prefix_distance;
        if (flip)
            ++result.flipped;
        const PrimerEnd &head = flip ? as_rev : as_fwd;
        if (n < fwd.size() + rev.size() || head.cut_distance > max_edit) {
            ++result.rejected;
            continue;
        }
        // The other primer ends the read: reverse, or rc(forward) when
        // the read is flipped.
        const Strand &closing = flip ? rc_fwd : rev;
        const PrimerEnd tail = locatePrimer(closing.rbegin(), closing.size(),
                                            raw.rbegin(), n, max_edit, row);
        if (tail.cut_distance > max_edit || head.cut + tail.cut >= n) {
            ++result.rejected;
            continue;
        }
        // The payload is raw[head.cut, n - tail.cut), reverse-complemented
        // when flipped.
        const auto first = raw.begin() + static_cast<std::ptrdiff_t>(head.cut);
        const auto last = raw.end() - static_cast<std::ptrdiff_t>(tail.cut);
        Strand payload = flip ? Strand(std::make_reverse_iterator(last),
                                       std::make_reverse_iterator(first))
                              : Strand(first, last);
        if (flip) {
            for (char &base : payload)
                base = complementChar(base);
        }
        result.reads.push_back(std::move(payload));
    }
    return result;
}

} // namespace

PreprocessResult
preprocessReads(const std::vector<Strand> &raw_reads, const PrimerPair &pair,
                const WetlabPreprocessConfig &config)
{
    return preprocessRecords(raw_reads, pair, config);
}

PreprocessResult
preprocessFastq(const std::vector<FastqRecord> &records,
                const PrimerPair &pair, const WetlabPreprocessConfig &config)
{
    return preprocessRecords(records, pair, config);
}

std::vector<FastqRecord>
readsToFastq(const std::vector<Strand> &reads, const std::string &id_prefix)
{
    std::vector<FastqRecord> records;
    records.reserve(reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
        records.push_back({id_prefix + "_" + std::to_string(i), reads[i],
                           std::string(reads[i].size(), 'I')});
    }
    return records;
}

} // namespace dnastore
