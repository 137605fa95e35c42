/**
 * @file
 * `dnastore report diff <baseline.json> <current.json>` — the perf
 * regression gate.  Compares two documents of the same schema
 * (dnastore.run_report or dnastore.bench_table3), extracts the
 * comparable performance series (per-stage seconds, per-combination
 * stage wall and CPU seconds), and flags regressions beyond a
 * tolerance.  Both documents must carry the current
 * obs::kSchemaVersion; any other schema, including the retired
 * bench_archive_throughput and bench_server_load documents, is refused.
 *
 * Every row is lower-is-better.  A row regresses when current -
 * baseline exceeds BOTH the relative slack (baseline * tolerance_pct /
 * 100) and the absolute floor; the floor keeps micro-benchmark noise (a
 * stage going from 2ms to 4ms) from tripping a 100% "regression".  Rows
 * present in only one document are reported but never gate.
 *
 * Exit codes: 0 = within tolerance, 1 = regression, 2 = usage/parse
 * error, another schema_version or an unsupported schema.  --markdown
 * additionally writes the row table as a markdown report.
 */

#pragma once

#include <string>

namespace dnastore::tools
{

/** Knobs for one diff run (defaults match the CI gate). */
struct ReportDiffOptions
{
    double tolerance_pct = 25.0;  //!< Relative slack per row.
    double abs_floor = 0.05;      //!< Absolute slack (row units).
    std::string markdown_path;    //!< Empty: no markdown report.
};

/**
 * Diff @p current_path against @p baseline_path and print the row table
 * to stdout.  Returns the process exit code (0/1/2, see file header).
 */
[[nodiscard]] int reportDiff(const std::string &baseline_path,
                             const std::string &current_path,
                             const ReportDiffOptions &options);

/** The `dnastore report <verb> ...` CLI entry point (argv[1]=="report"). */
[[nodiscard]] int cmdReport(int argc, char **argv);

} // namespace dnastore::tools
