/**
 * @file
 * Differential fuzz harness for wetlab preprocessing: preprocessReads
 * (one DP per primer end) against the earlier primer handling kept
 * verbatim in preprocess_reference.hh.  It is built as the fuzz target
 * fuzz_preprocess (fuzz/CMakeLists.txt, seed corpus in
 * fuzz/corpus/preprocess) and lives here, beside the test-only
 * reference it shares with the PreprocessDifferential tests.
 *
 * Input layout: byte 0 modulo 64 is max_edit (the reference runs
 * 2 * max_edit + 1 banded DPs per primer end, so this keeps every input
 * well inside libFuzzer's timeout), byte 1 the forward primer's length
 * and byte 2 the reverse primer's (each clamped to what is left), then
 * the forward primer, the reverse primer, and the read (the rest).  Any
 * bytes are allowed, so alphabets beyond ACGT, empty primers, empty
 * reads and tolerances above the primer length are all reachable.
 * Property checked: both give the same PreprocessResult (payloads,
 * total, flipped, rejected), on the read alone and on the read next to
 * its reverse complement.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "wetlab/preprocess.hh"
#include "wetlab/preprocess_reference.hh"

namespace
{

void
check(bool condition)
{
    if (!condition)
        std::abort(); // a crash under libFuzzer and the corpus replay alike
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size < 3)
        return 0;
    dnastore::WetlabPreprocessConfig config;
    config.primer_max_edit = data[0] % 64U;
    std::size_t rest = size - 3;
    const std::size_t fwd_len = std::min<std::size_t>(data[1], rest);
    rest -= fwd_len;
    const std::size_t rev_len = std::min<std::size_t>(data[2], rest);
    rest -= rev_len;
    const char *bytes = reinterpret_cast<const char *>(data + 3);
    const dnastore::PrimerPair pair{std::string(bytes, fwd_len),
                                    std::string(bytes + fwd_len, rev_len)};
    const std::string read(bytes + fwd_len + rev_len, rest);
    const std::vector<dnastore::Strand> reads = {
        read, dnastore::strand::reverseComplement(read)};

    const dnastore::PreprocessResult got =
        dnastore::preprocessReads(reads, pair, config);
    const dnastore::PreprocessResult want =
        dnastore::reference::preprocessReads(reads, pair, config);
    check(got.reads == want.reads);
    check(got.total == want.total);
    check(got.flipped == want.flipped);
    check(got.rejected == want.rejected);
    return 0;
}
