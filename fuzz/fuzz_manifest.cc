/**
 * @file
 * Fuzz harness for the archive's on-disk metadata parsers: the
 * manifest.json reader (tryParseManifest, with its own JSON reader) and
 * the pool record id parser (tryParsePoolRecordPair) — the hostile
 * inputs an archive directory hands to open() and fsck.
 *
 * Properties checked:
 *  - neither parser throws, crashes or hangs on any input;
 *  - every manifest the parser accepts re-serialises (manifestJson) to
 *    a document that parses back to the same canonical document;
 *  - every pair id parsed out of a line survives the writer's record id
 *    format (poolRecordId) unchanged.
 */

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "archive/archive.hh"
#include "archive/manifest.hh"

namespace
{

void
check(bool condition)
{
    if (!condition)
        std::abort();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace dnastore::archive;
    const std::string text(reinterpret_cast<const char *>(data), size);

    const ManifestParseResult parsed = tryParseManifest(text);
    if (parsed.manifest) {
        const std::string canonical = manifestJson(*parsed.manifest);
        const ManifestParseResult again = tryParseManifest(canonical);
        check(again.manifest.has_value());
        check(manifestJson(*again.manifest) == canonical);
    }

    std::string_view rest = text;
    while (!rest.empty()) {
        const std::size_t eol = rest.find('\n');
        const std::string line(rest.substr(0, eol));
        rest = eol == std::string_view::npos ? std::string_view{}
                                             : rest.substr(eol + 1);
        const auto pair_id = tryParsePoolRecordPair(line);
        if (pair_id)
            check(tryParsePoolRecordPair(poolRecordId(0, *pair_id)) ==
                  pair_id);
    }
    return 0;
}
