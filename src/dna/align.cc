#include "dna/align.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "dna/base.hh"
#include "obs/metrics.hh"
#include "util/hot.hh"

namespace dnastore
{

PairwiseAlignment
globalAlign(const std::string &a, const std::string &b,
            const AlignScores &scores)
{
    const std::size_t n = a.size(), m = b.size();
    // dp[i][j]: best score aligning a[0..i) with b[0..j).
    std::vector<int> dp((n + 1) * (m + 1));
    std::vector<std::uint8_t> trace((n + 1) * (m + 1));
    auto at = [m](std::size_t i, std::size_t j) { return i * (m + 1) + j; };
    enum : std::uint8_t { FromDiag = 0, FromUp = 1, FromLeft = 2 };

    dp[at(0, 0)] = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        dp[at(i, 0)] = static_cast<int>(i) * scores.gap;
        trace[at(i, 0)] = FromUp;
    }
    for (std::size_t j = 1; j <= m; ++j) {
        dp[at(0, j)] = static_cast<int>(j) * scores.gap;
        trace[at(0, j)] = FromLeft;
    }
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const int diag = dp[at(i - 1, j - 1)] +
                (a[i - 1] == b[j - 1] ? scores.match : scores.mismatch);
            const int up = dp[at(i - 1, j)] + scores.gap;
            const int left = dp[at(i, j - 1)] + scores.gap;
            int best = diag;
            std::uint8_t dir = FromDiag;
            if (up > best) {
                best = up;
                dir = FromUp;
            }
            if (left > best) {
                best = left;
                dir = FromLeft;
            }
            dp[at(i, j)] = best;
            trace[at(i, j)] = dir;
        }
    }

    PairwiseAlignment out;
    out.score = dp[at(n, m)];
    std::size_t i = n, j = m;
    std::string ra, rb;
    while (i > 0 || j > 0) {
        const std::uint8_t dir = trace[at(i, j)];
        if (i > 0 && j > 0 && dir == FromDiag) {
            ra.push_back(a[--i]);
            rb.push_back(b[--j]);
        } else if (i > 0 && (dir == FromUp || j == 0)) {
            ra.push_back(a[--i]);
            rb.push_back('-');
        } else {
            ra.push_back('-');
            rb.push_back(b[--j]);
        }
    }
    std::reverse(ra.begin(), ra.end());
    std::reverse(rb.begin(), rb.end());
    out.aligned_a = std::move(ra);
    out.aligned_b = std::move(rb);
    return out;
}

std::vector<EditOp>
classifyEdits(const std::string &reference, const std::string &read,
              const AlignScores &scores)
{
    const PairwiseAlignment aln = globalAlign(reference, read, scores);
    std::vector<EditOp> ops;
    ops.reserve(aln.aligned_a.size());
    std::size_t ref_pos = 0;
    for (std::size_t i = 0; i < aln.aligned_a.size(); ++i) {
        const char rc = aln.aligned_a[i];
        const char qc = aln.aligned_b[i];
        if (rc == '-') {
            ops.push_back({EditKind::Insertion, ref_pos, '-', qc});
        } else if (qc == '-') {
            ops.push_back({EditKind::Deletion, ref_pos, rc, '-'});
            ++ref_pos;
        } else if (rc == qc) {
            ops.push_back({EditKind::Match, ref_pos, rc, qc});
            ++ref_pos;
        } else {
            ops.push_back({EditKind::Substitution, ref_pos, rc, qc});
            ++ref_pos;
        }
    }
    return ops;
}

namespace
{

constexpr std::uint8_t FromDiag = 0, FromUp = 1, FromLeft = 2;

/** Band slack w: offsets beyond the length difference that are filled. */
constexpr std::ptrdiff_t kBandSlack = 8;

/** Far below any reachable score, with headroom for the steps the DP
 *  adds to it. */
constexpr std::int64_t kUnreachable =
    std::numeric_limits<std::int64_t>::min() / 4;

/** Whether a column with @p gaps gaps among @p reads reads is one the
 *  band's centre follows: at most half of its reads are gaps, so that
 *  with two reads a column one of them deleted still counts. */
constexpr bool
majorityColumn(std::uint32_t gaps, std::size_t reads)
{
    return 2 * std::size_t{gaps} <= reads;
}

/** Reads whose guided band could not be proved exact but whose wider
 *  retry could.  Resolved at load time, like the counter below. */
obs::Counter &band_retries =
    obs::metrics().counter("dna.msa_band_retries_total");

/** Reads whose band could not be proved exact even after the retry and
 *  were realigned at full width.  Resolved at load time, so addRead
 *  only touches a counter (and its atomic) when it reruns. */
obs::Counter &band_widenings =
    obs::metrics().counter("dna.msa_band_widenings_total");

} // namespace

ProfileMsa::ProfileMsa(const AlignScores &align_scores) : scores(align_scores)
{
}

bool
ProfileMsa::alignBanded(std::ptrdiff_t lo, std::ptrdiff_t hi)
{
    const std::size_t m = columns.size();
    const std::size_t n = scratch.codes.size();
    const auto sn = static_cast<std::ptrdiff_t>(n);
    const std::size_t stride = n + 1;
    // Inserting a new column: every existing read takes a gap.
    const std::int64_t new_column =
        static_cast<std::int64_t>(reads_added) * scores.gap;

    // Row i (the first i profile columns) fills j in [c(i) + lo,
    // c(i) + hi], clamped to [0, n], where c(i) counts the base-majority
    // columns among the first i.  Each edge moves 0 or 1 column per row.
    //
    // Two DP rows, each updated in place (before cell j of row i is
    // written it still holds row i-1's value):
    //  - row:   the best score of a path that stays inside the band;
    //  - bound: an upper bound on any path that leaves the band and
    //           comes back to the cell.
    // The cells outside the band are summarised, per row, by one upper
    // bound below it (j < j_lo) and one above it (j > j_hi); a step
    // taken outside is scored as the column's best possible step, and a
    // left move never raises a score.  A path re-enters the band
    //  - from below, by a left move into the band's first cell, or, when
    //    the left edge stalled, by a diagonal into it from the previous
    //    row's below;
    //  - from above, by an up move into the cell past the previous
    //    row's band, which is in this row's band when the right edge
    //    moved.
    // It leaves the band
    //  - downwards by an up move from the previous row's first cell,
    //    when the left edge moved;
    //  - upwards by a left move from the row's last cell, or, when the
    //    right edge stalled, by a diagonal from the previous row's last
    //    cell.
    // With edges that move 0 or 1 per row, no other move crosses one.
    // If bound < row at (m, n), every path that leaves the band scores
    // strictly lower than the banded optimum, and the banded trace
    // equals the full-width one, ties included.
    scratch.row.resize(stride);
    scratch.bound.resize(stride);
    scratch.trace.resize((m + 1) * stride);
    // Local pointers: the trace store may alias anything, so loads
    // through the vectors would be repeated on every cell.
    std::int64_t *const row = scratch.row.data();
    std::int64_t *const bound = scratch.bound.data();
    const std::uint8_t *const codes = scratch.codes.data();
    std::uint8_t *const trace = scratch.trace.data();

    // Row 0: c(0) = 0 and lo < 0, so the band starts at column 0.
    std::size_t j_lo = 0;
    std::size_t j_hi = static_cast<std::size_t>(std::min(sn, hi));
    row[0] = 0;
    bound[0] = kUnreachable;
    for (std::size_t j = 1; j <= j_hi; ++j) {
        row[j] = row[j - 1] + new_column;
        bound[j] = kUnreachable;
        trace[j] = FromLeft;
    }
    // Upper bounds, for the current row, on any cell under the band and
    // on any cell over it; and on the band's first and last cells by
    // any path.
    std::int64_t below = kUnreachable;
    std::int64_t above = kUnreachable;
    std::int64_t lo_edge = row[0];
    std::int64_t hi_edge = row[j_hi];
    if (j_hi < n) {
        above = hi_edge + new_column;
        row[j_hi + 1] = kUnreachable;
        bound[j_hi + 1] = above;
    }

    std::ptrdiff_t c = 0;
    for (std::size_t i = 1; i <= m; ++i) {
        const auto &counts = columns[i - 1].counts;
        const std::int64_t bases = static_cast<std::int64_t>(counts[0]) +
            counts[1] + counts[2] + counts[3];
        const std::int64_t gaps = counts[4];
        std::array<std::int64_t, kNumBases> diag_score{};
        for (int b = 0; b < kNumBases; ++b) {
            const std::int64_t matches = counts[b];
            diag_score[b] = matches * scores.match +
                (bases - matches) * scores.mismatch + gaps * scores.gap;
        }
        // A read gap against an existing gap costs nothing; against a
        // base, the gap penalty.
        const std::int64_t up_score = bases * scores.gap;
        // The best any diagonal or up move into this row can score:
        // what each step outside the band is assumed to score.
        const std::int64_t step_max = std::max(
            up_score, *std::max_element(diag_score.begin(), diag_score.end()));

        c += majorityColumn(counts[4], reads_added);
        const std::size_t prev_lo = j_lo, prev_hi = j_hi;
        j_lo = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, c + lo));
        j_hi = static_cast<std::size_t>(std::min(sn, c + hi));
        const bool lo_moved = j_lo != prev_lo;
        const std::int64_t prev_below = below;
        if (j_lo == 0)
            below = kUnreachable;
        else if (lo_moved)
            below = std::max(below + step_max, lo_edge + up_score);
        else
            below += step_max;

        std::uint8_t *const tr = trace + i * stride;
        std::size_t j = j_lo;
        // Cell (i-1, j-1), and cell (i, j-1), which for the band's first
        // cell lies under the band.
        std::int64_t diag_prev = kUnreachable, bound_diag_prev = kUnreachable;
        std::int64_t left = kUnreachable, bound_left = below;
        if (j_lo == 0) {
            // Column 0: only an up move reaches it.
            diag_prev = row[0];
            row[0] += up_score;
            tr[0] = FromUp;
            left = row[0];
            j = 1;
        } else if (lo_moved) {
            diag_prev = row[j_lo - 1];
            bound_diag_prev = bound[j_lo - 1];
        } else {
            // The left edge stalled: cell (i-1, j_lo-1) lies under the
            // previous row's band, and row[j_lo-1] is stale.
            bound_diag_prev = prev_below;
        }
        for (; j <= j_hi; ++j) {
            const std::int64_t score = diag_score[codes[j - 1]];
            const std::int64_t diag = diag_prev + score;
            const std::int64_t up = row[j] + up_score;
            const std::int64_t from_left = left + new_column;
            diag_prev = row[j];
            // Ties resolve diagonal > up > left.
            const bool take_up = up > diag;
            std::int64_t best = take_up ? up : diag;
            std::uint8_t dir = take_up ? FromUp : FromDiag;
            const bool take_left = from_left > best;
            best = take_left ? from_left : best;
            dir = take_left ? FromLeft : dir;
            row[j] = best;
            tr[j] = dir;
            left = best;

            const std::int64_t out = std::max(
                {bound_diag_prev + score, bound[j] + up_score,
                 bound_left + new_column});
            bound_diag_prev = bound[j];
            bound[j] = out;
            bound_left = out;
        }
        lo_edge = std::max(row[j_lo], bound[j_lo]);
        const std::int64_t prev_hi_edge = hi_edge;
        hi_edge = std::max(row[j_hi], bound[j_hi]);
        if (j_hi < n) {
            above = std::max(above + step_max, hi_edge + new_column);
            if (j_hi == prev_hi)
                above = std::max(above, prev_hi_edge + step_max);
            row[j_hi + 1] = kUnreachable;
            bound[j_hi + 1] = above;
        }
    }
    return bound[n] < row[n];
}

void
ProfileMsa::traceBack()
{
    const std::vector<std::uint8_t> &codes = scratch.codes;
    const std::vector<std::uint8_t> &trace = scratch.trace;
    const std::size_t stride = codes.size() + 1;
    std::vector<Step> &steps = scratch.steps;
    steps.clear();
    steps.reserve(columns.size() + codes.size());
    std::size_t i = columns.size(), j = codes.size();
    while (i > 0 || j > 0) {
        const std::uint8_t dir = trace[i * stride + j];
        if (i > 0 && j > 0 && dir == FromDiag) {
            --i;
            --j;
            steps.push_back({FromDiag, codes[j], i});
        } else if (i > 0 && (dir == FromUp || j == 0)) {
            --i;
            steps.push_back({FromUp, 0, i});
        } else {
            --j;
            steps.push_back({FromLeft, codes[j], 0});
        }
    }
}

DNASTORE_HOT void
ProfileMsa::addRead(const std::string &read)
{
    std::vector<std::uint8_t> &codes = scratch.codes;
    codes.resize(read.size());
    for (std::size_t i = 0; i < read.size(); ++i) {
        const std::uint8_t code = charToCode(read[i]);
        if (code == 0xff)
            throw std::invalid_argument("ProfileMsa: non-ACGT character");
        codes[i] = code;
    }

    if (reads_added == 0) {
        columns.resize(read.size());
        for (std::size_t i = 0; i < read.size(); ++i)
            columns[i].counts[codes[i]] = 1;
        majority_columns = read.size();
        reads_added = 1;
        return;
    }

    // The guided band, then the same centre with more slack, then full
    // width: each rerun happens only when the last band was not proved
    // exact.
    const auto m = static_cast<std::ptrdiff_t>(columns.size());
    const auto n = static_cast<std::ptrdiff_t>(read.size());
    const auto majority = static_cast<std::ptrdiff_t>(majority_columns);
    const std::ptrdiff_t lo =
        std::min<std::ptrdiff_t>(0, n - majority) - kBandSlack;
    const std::ptrdiff_t hi =
        std::max<std::ptrdiff_t>(0, n - majority) + kBandSlack;
    if (!alignBanded(lo, hi)) {
        const std::ptrdiff_t more = std::max(m - majority, kBandSlack);
        obs::Counter *rerun = &band_retries;
        if (!alignBanded(lo - more, hi + more)) {
            rerun = &band_widenings;
            alignBanded(-m, n);
        }
        rerun->add();
    }
    traceBack();

    // Merge the read into the profile, replaying the steps start to end.
    std::vector<Column> &merged = scratch.merged;
    merged.clear();
    merged.reserve(scratch.steps.size());
    majority_columns = 0;
    for (auto it = scratch.steps.rbegin(); it != scratch.steps.rend(); ++it) {
        switch (it->dir) {
          case FromDiag: {
            Column col = columns[it->col];
            ++col.counts[it->code];
            merged.push_back(col);
            break;
          }
          case FromUp: {
            Column col = columns[it->col];
            ++col.counts[4]; // read gaps this column
            merged.push_back(col);
            break;
          }
          case FromLeft: {
            Column col;
            col.counts[it->code] = 1;
            col.counts[4] = static_cast<std::uint32_t>(reads_added);
            merged.push_back(col);
            break;
          }
        }
        majority_columns +=
            majorityColumn(merged.back().counts[4], reads_added + 1);
    }
    columns.swap(merged);
    ++reads_added;
}

std::string
ProfileMsa::consensus(std::size_t expected_length) const
{
    struct Pick
    {
        char base;
        std::uint32_t gaps;
        std::size_t order;
    };
    std::vector<Pick> picks;
    picks.reserve(columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const Column &col = columns[i];
        int best_base = 0;
        for (int b = 1; b < kNumBases; ++b)
            if (col.counts[b] > col.counts[best_base])
                best_base = b;
        // A column is kept if some base strictly beats the gap count; ties
        // favour keeping the base so sparse coverage does not erase data.
        if (col.counts[best_base] == 0 ||
            col.counts[4] > col.counts[best_base]) {
            continue;
        }
        picks.push_back({baseToChar(static_cast<std::uint8_t>(best_base)),
                         col.counts[4], i});
    }

    if (expected_length > 0 && picks.size() > expected_length) {
        // Drop the x most indel-heavy columns (paper Section VII-C).
        const std::size_t x = picks.size() - expected_length;
        std::vector<std::size_t> idx(picks.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::stable_sort(idx.begin(), idx.end(),
                         [&picks](std::size_t a, std::size_t b) {
                             return picks[a].gaps > picks[b].gaps;
                         });
        std::vector<bool> drop(picks.size(), false);
        for (std::size_t i = 0; i < x; ++i)
            drop[idx[i]] = true;
        std::string out;
        out.reserve(expected_length);
        for (std::size_t i = 0; i < picks.size(); ++i)
            if (!drop[i])
                out.push_back(picks[i].base);
        return out;
    }

    std::string out;
    out.reserve(picks.size());
    for (const Pick &pick : picks)
        out.push_back(pick.base);
    return out;
}

} // namespace dnastore
