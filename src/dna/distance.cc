#include "dna/distance.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/hot.hh"

namespace dnastore
{

std::size_t
hammingDistance(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("hammingDistance: length mismatch");
    std::size_t d = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d += a[i] != b[i];
    return d;
}

std::size_t
levenshtein(const std::string &a, const std::string &b)
{
    // Keep the shorter string along the row to bound memory.
    const std::string &rows = a.size() >= b.size() ? a : b;
    const std::string &cols = a.size() >= b.size() ? b : a;
    const std::size_t m = cols.size();

    std::vector<std::size_t> prev(m + 1), curr(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;

    for (std::size_t i = 1; i <= rows.size(); ++i) {
        curr[0] = i;
        const char ri = rows[i - 1];
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub = prev[j - 1] + (ri != cols[j - 1]);
            const std::size_t del = prev[j] + 1;
            const std::size_t ins = curr[j - 1] + 1;
            curr[j] = std::min({sub, del, ins});
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

DNASTORE_HOT std::size_t
boundedLevenshtein(const std::string &a, const std::string &b,
                   std::size_t max_distance)
{
    const std::size_t la = a.size(), lb = b.size();
    const std::size_t len_gap = la > lb ? la - lb : lb - la;
    if (len_gap > max_distance)
        return max_distance + 1;
    if (max_distance == 0)
        return a == b ? 0 : 1;

    // Ukkonen's band: only cells with |i - j| <= max_distance can hold a
    // value <= max_distance.
    const std::string &rows = la >= lb ? a : b;
    const std::string &cols = la >= lb ? b : a;
    const std::size_t m = cols.size();
    const std::size_t big = max_distance + 1;

    std::vector<std::size_t> prev(m + 1, big), curr(m + 1, big);
    for (std::size_t j = 0; j <= std::min(m, max_distance); ++j)
        prev[j] = j;

    for (std::size_t i = 1; i <= rows.size(); ++i) {
        const std::size_t lo = i > max_distance ? i - max_distance : 0;
        const std::size_t hi = std::min(m, i + max_distance);
        if (lo >= 1)
            curr[lo - 1] = big; // stale cell from two rows ago
        curr[lo] = big;
        if (lo == 0)
            curr[0] = std::min<std::size_t>(i, big);
        std::size_t row_best = curr[lo];
        const char ri = rows[i - 1];
        for (std::size_t j = std::max<std::size_t>(lo, 1); j <= hi; ++j) {
            const std::size_t sub = prev[j - 1] + (ri != cols[j - 1]);
            const std::size_t del = prev[j] + 1;
            const std::size_t ins = curr[j - 1] + 1;
            const std::size_t cell = std::min({sub, del, ins, big});
            curr[j] = cell;
            row_best = std::min(row_best, cell);
        }
        if (hi + 1 <= m)
            curr[hi + 1] = big; // fence for next row's j-1 access
        if (row_best > max_distance)
            return max_distance + 1; // whole band exceeded; can't recover
        std::swap(prev, curr);
    }
    return std::min(prev[m], big);
}

namespace
{

constexpr std::size_t kWord = 64;
/** The widest threshold whose band, 2k + 1 rows, fits one word. */
constexpr std::size_t kMaxBandDistance = (kWord - 1) / 2;

/**
 * Myers' bit-parallel edit distance (Hyyro's blocked formulation) of
 * a non-empty pattern against a text at least as long.  Returns the
 * exact distance when it is <= k, otherwise some value above k.
 *
 * kBlocks is the pattern's 64-bit block count; 0 means a runtime count
 * with the buffers in a vector.  Peq holds a row only for the symbols
 * the pattern contains; every other byte maps to the all-zero row 0.
 */
template <std::size_t kBlocks>
std::size_t
myersKernel(std::string_view pattern, std::string_view text, std::size_t k)
{
    const std::size_t m = pattern.size();
    const std::size_t n = text.size();
    const std::size_t blocks =
        kBlocks != 0 ? kBlocks : (m + kWord - 1) / kWord;

    std::array<std::uint16_t, 256> slot_of{};
    std::size_t rows = 1;
    for (const char c : pattern) {
        std::uint16_t &slot = slot_of[static_cast<unsigned char>(c)];
        if (slot == 0)
            slot = static_cast<std::uint16_t>(rows++);
    }

    // Fixed block counts keep every buffer on the stack, VP and VN in
    // registers; Peq has at most 256 symbol rows after the zero row.
    using Words =
        std::conditional_t<kBlocks != 0,
                           std::array<std::uint64_t, kBlocks>,
                           std::vector<std::uint64_t>>;
    using PeqRows =
        std::conditional_t<kBlocks != 0,
                           std::array<std::uint64_t, 257 * kBlocks>,
                           std::vector<std::uint64_t>>;
    Words vp{}, vn{};
    PeqRows peq; // only rows * blocks words are used; zeroed below
    if constexpr (kBlocks == 0) {
        vp.resize(blocks);
        vn.resize(blocks);
        peq.resize(rows * blocks);
    }
    std::fill(vp.begin(), vp.end(), ~std::uint64_t{0});
    std::fill(vn.begin(), vn.end(), 0);
    std::fill(peq.data(), peq.data() + rows * blocks, 0);
    for (std::size_t i = 0; i < m; ++i) {
        const auto c = static_cast<unsigned char>(pattern[i]);
        peq[slot_of[c] * blocks + i / kWord] |= std::uint64_t{1}
                                                << (i % kWord);
    }

    std::size_t score = m;
    const std::uint64_t last_bit = std::uint64_t{1} << ((m - 1) % kWord);
    for (std::size_t j = 0; j < n; ++j) {
        const auto c = static_cast<unsigned char>(text[j]);
        const std::uint64_t *const eq_row = peq.data() + slot_of[c] * blocks;
        std::uint64_t add_carry = 0;
        // Horizontal deltas shift left across blocks; block 0's
        // incoming +1 encodes the top boundary row D[0][j] = j.
        std::uint64_t hp_carry = 1, hn_carry = 0;
        for (std::size_t blk = 0; blk < blocks; ++blk) {
            const std::uint64_t eq = eq_row[blk];
            const std::uint64_t xv = eq | vn[blk];

            // (Eq & VP) + VP with carry propagation across blocks.
            const std::uint64_t and_term = eq & vp[blk];
            std::uint64_t sum = and_term + vp[blk];
            std::uint64_t carry_out = sum < and_term;
            const std::uint64_t sum2 = sum + add_carry;
            carry_out += sum2 < sum;
            sum = sum2;
            add_carry = carry_out;

            const std::uint64_t xh = (sum ^ vp[blk]) | eq;
            std::uint64_t hp = vn[blk] | ~(xh | vp[blk]);
            std::uint64_t hn = vp[blk] & xh;

            if (blk == blocks - 1) {
                if (hp & last_bit)
                    ++score;
                else if (hn & last_bit)
                    --score;
            }

            const std::uint64_t hp_out = hp >> (kWord - 1);
            const std::uint64_t hn_out = hn >> (kWord - 1);
            hp = (hp << 1) | hp_carry;
            hn = (hn << 1) | hn_carry;
            hp_carry = hp_out;
            hn_carry = hn_out;

            vp[blk] = hn | ~(xv | hp);
            vn[blk] = hp & xv;
        }
        // The score moves by at most one per remaining column, so it
        // can no longer come back down to k.
        if (score > k && score - k > n - 1 - j)
            return score;
    }
    return score;
}

/** Myers' kernel on (a, b) with the shorter string as the pattern. */
std::size_t
myersBounded(std::string_view a, std::string_view b, std::size_t k)
{
    const std::string_view pattern = a.size() <= b.size() ? a : b;
    const std::string_view text = a.size() <= b.size() ? b : a;
    switch ((pattern.size() + kWord - 1) / kWord) {
    case 0:
        return text.size();
    case 1:
        return myersKernel<1>(pattern, text, k);
    case 2:
        return myersKernel<2>(pattern, text, k);
    case 3:
        return myersKernel<3>(pattern, text, k);
    case 4:
        return myersKernel<4>(pattern, text, k);
    default:
        return myersKernel<0>(pattern, text, k);
    }
}

/**
 * Hyyro's banded bit-vector kernel (2003): whether the edit distance of
 * a pattern and a text no longer than it is at most k, for
 * len gap <= k < |pattern| and 2k + 1 <= 64.  Only the diagonal band
 * |i - j| <= k of the DP matrix can hold a value <= k, and it fits in
 * one word: column j reads the pattern bitmasks at row offset
 * k + 1 - 64 + j, so bit 63 is the band's lower diagonal i = j + k.
 * The score is tracked along that diagonal until it reaches the last
 * row, then along the last row.
 *
 * Peq holds the pattern bitmasks at bit offset 64, with a zero word on
 * either side, so every window reads two in-range words.  It has a row
 * only for the symbols the pattern contains; every other byte maps to
 * the all-zero row 0.  Patterns of at most 256 symbols use the stack.
 */
bool
bandKernel(std::string_view pattern, std::string_view text, std::size_t k)
{
    const std::size_t m = pattern.size();
    const std::size_t n = text.size();
    const std::size_t words = (m + kWord - 1) / kWord + 2;
    constexpr std::size_t kStackWords = 256 / kWord + 2;

    // One pass over the pattern: a symbol's row is zeroed when the
    // symbol is first seen, so untouched rows cost nothing.
    std::array<std::uint64_t, 257 * kStackWords> stack_peq;
    std::vector<std::uint64_t> heap_peq;
    std::uint64_t *peq = stack_peq.data();
    if (words > kStackWords) {
        heap_peq.resize(257 * words);
        peq = heap_peq.data();
    }
    std::fill(peq, peq + words, 0);
    std::array<std::uint16_t, 256> slot_of{};
    std::size_t rows = 1;
    for (std::size_t i = 0; i < m; ++i) {
        std::uint16_t &slot = slot_of[static_cast<unsigned char>(pattern[i])];
        if (slot == 0) {
            slot = static_cast<std::uint16_t>(rows++);
            std::fill(peq + slot * words, peq + (slot + 1) * words, 0);
        }
        peq[slot * words + 1 + i / kWord] |= std::uint64_t{1}
                                             << (i % kWord);
    }

    // Before column 1 the band holds D[0..k][0] = 0..k: k + 1 steps of
    // +1 ending at bit 63, where the score D[k][0] = k is tracked.
    std::uint64_t vp = ~std::uint64_t{0} << (kWord - 1 - k);
    std::uint64_t vn = 0;
    std::size_t score = k;
    // Along the lower diagonal the score never falls; along the last
    // row it falls by at most one per column, k - gap columns in all.
    const std::size_t break_score = 2 * k - (m - n);
    std::uint64_t last_row = std::uint64_t{1} << (kWord - 2);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t pos = k + 1 + j; // the window, offset by 64
        const std::uint64_t *const eq_row =
            peq + slot_of[static_cast<unsigned char>(text[j])] * words +
            pos / kWord;
        const unsigned shift = pos % kWord;
        const std::uint64_t eq =
            (eq_row[0] >> shift) | ((eq_row[1] << 1) << (kWord - 1 - shift));

        const std::uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
        const std::uint64_t hp = vn | ~(d0 | vp);
        const std::uint64_t hn = d0 & vp;
        if (j + k < m) {
            score += (d0 >> (kWord - 1)) ^ 1; // diagonal step: +0 or +1
        } else {
            score += (hp & last_row) != 0;
            score -= (hn & last_row) != 0;
            last_row >>= 1;
        }
        if (score > break_score)
            return false;
        // Shift the band one row down for the next column.
        vp = hn | ~((d0 >> 1) | hp);
        vn = (d0 >> 1) & hp;
    }
    return score <= k;
}

} // namespace

DNASTORE_HOT std::size_t
myersLevenshtein(const std::string &a, const std::string &b)
{
    return myersBounded(a, b, std::numeric_limits<std::size_t>::max());
}

DNASTORE_HOT bool
withinEditDistance(const std::string &a, const std::string &b,
                   std::size_t max_distance)
{
    const std::size_t gap = a.size() > b.size() ? a.size() - b.size()
                                                : b.size() - a.size();
    if (gap > max_distance)
        return false;
    const std::string_view pattern = a.size() >= b.size() ? a : b;
    const std::string_view text = a.size() >= b.size() ? b : a;
    if (pattern.size() <= max_distance)
        return true; // the distance is at most the longer length
    // A band of 2k + 1 rows fits one word: one word step per column.
    if (max_distance <= kMaxBandDistance)
        return bandKernel(pattern, text, max_distance);
    return myersBounded(a, b, max_distance) <= max_distance;
}

} // namespace dnastore
