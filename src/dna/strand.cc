#include "dna/strand.hh"

#include <algorithm>
#include <stdexcept>

#include "dna/base.hh"

namespace dnastore
{
namespace strand
{

bool
isValid(const Strand &s)
{
    return std::all_of(s.begin(), s.end(),
                       [](char c) { return isBaseChar(c); });
}

Strand
random(Rng &rng, std::size_t length)
{
    Strand s(length, 'A');
    for (auto &c : s)
        c = baseToChar(static_cast<std::uint8_t>(rng.below(4)));
    return s;
}

double
gcContent(const Strand &s)
{
    if (s.empty())
        return 0.0;
    const auto gc = std::count_if(s.begin(), s.end(), [](char c) {
        return c == 'G' || c == 'C' || c == 'g' || c == 'c';
    });
    return static_cast<double>(gc) / static_cast<double>(s.size());
}

std::size_t
maxHomopolymerRun(const Strand &s)
{
    std::size_t best = 0;
    std::size_t run = 0;
    char prev = '\0';
    for (char c : s) {
        run = (c == prev) ? run + 1 : 1;
        prev = c;
        best = std::max(best, run);
    }
    return best;
}

Strand
reverseComplement(const Strand &s)
{
    Strand out = s;
    reverseComplementInPlace(out);
    return out;
}

void
reverseComplementInPlace(Strand &s)
{
    std::reverse(s.begin(), s.end());
    for (char &c : s)
        c = complementChar(c);
}

Strand
fromBytes(const std::vector<std::uint8_t> &bytes)
{
    // Sized once and written through a pointer: a push_back per base
    // re-checks the capacity every time, and the matrix encoder packs
    // every molecule through here.
    Strand s(bytes.size() * 4, 'A');
    char *out = s.data();
    for (std::uint8_t byte : bytes) {
        *out++ = baseToChar(static_cast<std::uint8_t>(byte >> 6));
        *out++ = baseToChar(static_cast<std::uint8_t>(byte >> 4));
        *out++ = baseToChar(static_cast<std::uint8_t>(byte >> 2));
        *out++ = baseToChar(byte);
    }
    return s;
}

std::vector<std::uint8_t>
toBytes(const Strand &s)
{
    if (s.size() % 4 != 0)
        throw std::invalid_argument("toBytes: length not a multiple of 4");
    auto bytes = tryToBytes(s);
    if (!bytes)
        throw std::invalid_argument("toBytes: non-ACGT character");
    return std::move(*bytes);
}

std::optional<std::vector<std::uint8_t>>
tryToBytes(const Strand &s)
{
    if (s.size() % 4 != 0)
        return std::nullopt;
    std::vector<std::uint8_t> bytes;
    bytes.reserve(s.size() / 4);
    for (std::size_t i = 0; i < s.size(); i += 4) {
        std::uint8_t byte = 0;
        for (std::size_t j = 0; j < 4; ++j) {
            const std::uint8_t code = charToCode(s[i + j]);
            if (code == 0xff)
                return std::nullopt;
            byte = static_cast<std::uint8_t>((byte << 2) | code);
        }
        bytes.push_back(byte);
    }
    return bytes;
}

Strand
encodeNumber(std::uint64_t value, std::size_t num_bases)
{
    if (num_bases < 32 && (value >> (2 * num_bases)) != 0)
        throw std::invalid_argument("encodeNumber: value does not fit");
    Strand s(num_bases, 'A');
    for (std::size_t i = 0; i < num_bases; ++i) {
        const std::size_t shift = 2 * (num_bases - 1 - i);
        const auto code = static_cast<std::uint8_t>(
            shift < 64 ? (value >> shift) & 0x3 : 0);
        s[i] = baseToChar(code);
    }
    return s;
}

std::uint64_t
decodeNumber(const Strand &s)
{
    const auto value = tryDecodeNumber(s);
    if (!value)
        throw std::invalid_argument(
            "decodeNumber: non-ACGT character or overflow-length field");
    return *value;
}

std::optional<std::uint64_t>
tryDecodeNumber(const Strand &s)
{
    // More than 32 bases cannot round-trip through a 64-bit value; treat
    // an overflow-length field as malformed rather than silently
    // truncating the high bits.
    if (s.size() > 32)
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : s) {
        const std::uint8_t code = charToCode(c);
        if (code == 0xff)
            return std::nullopt;
        value = (value << 2) | code;
    }
    return value;
}

std::vector<std::size_t>
mismatchPositions(const Strand &a, const Strand &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("mismatchPositions: length mismatch");
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            out.push_back(i);
    return out;
}

} // namespace strand
} // namespace dnastore
