#include "report_diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "archive/json_reader.hh"
#include "obs/report.hh"

namespace dnastore::tools
{
namespace
{

using archive::JsonValue;

/** Comparable series extracted from a report document; every row is
 *  lower-is-better. */
using MetricMap = std::map<std::string, double>;

/** Verdict for one row of the diff table. */
enum class RowStatus : std::uint8_t
{
    Ok = 0,
    Improved,
    Regressed,
    BaselineOnly,
    CurrentOnly,
};

struct DiffRow
{
    std::string name;
    std::optional<double> baseline;
    std::optional<double> current;
    RowStatus status = RowStatus::Ok;
};

/**
 * Read and parse the document at @p path and check that it carries the
 * current schema_version; nullopt (after saying why) otherwise.
 */
std::optional<JsonValue>
loadDocument(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "report diff: cannot read " << path << "\n";
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto doc = archive::tryParseJson(buffer.str());
    if (!doc.has_value()) {
        std::cerr << "report diff: " << path << " is not valid JSON\n";
        return std::nullopt;
    }
    const JsonValue *version = doc->find("schema_version");
    if (version == nullptr ||
        version->asUint() != std::uint64_t{obs::kSchemaVersion}) {
        std::cerr << "report diff: " << path << " is not schema_version "
                  << obs::kSchemaVersion << "\n";
        return std::nullopt;
    }
    return doc;
}

double
numberOf(const JsonValue &v)
{
    return v.asDouble().value_or(0.0);
}

/** dnastore.run_report: per-stage wall seconds + the stage total. */
void
extractRunReport(const JsonValue &doc, MetricMap &out)
{
    const JsonValue *stages = doc.find("stages");
    const JsonValue::Object *members =
        stages != nullptr ? stages->asObject() : nullptr;
    if (members == nullptr)
        return;
    for (const auto &[name, value] : *members) {
        if (const JsonValue *seconds = value.find("seconds"))
            out["stages." + name + ".seconds"] = numberOf(*seconds);
        else if (value.asDouble().has_value())
            out["stages." + name] = numberOf(value);
    }
}

/** dnastore.bench_table3: per-combination stage and total seconds. */
void
extractBenchTable3(const JsonValue &doc, MetricMap &out)
{
    const JsonValue *combos = doc.find("combinations");
    const JsonValue::Array *items =
        combos != nullptr ? combos->asArray() : nullptr;
    if (items == nullptr)
        return;
    for (const JsonValue &combo : *items) {
        const std::string *pipeline_name = nullptr;
        if (const JsonValue *p = combo.find("pipeline"))
            pipeline_name = p->asString();
        std::string prefix =
            pipeline_name != nullptr ? *pipeline_name : "combo";
        if (const JsonValue *coverage = combo.find("coverage")) {
            if (const auto cov = coverage->asUint())
                prefix += "@cov" + std::to_string(*cov);
        }
        const JsonValue *stages = combo.find("stages");
        const JsonValue::Object *members =
            stages != nullptr ? stages->asObject() : nullptr;
        if (members == nullptr)
            continue;
        for (const auto &[name, value] : *members) {
            if (value.asDouble().has_value())
                out[prefix + "." + name] = numberOf(value);
        }
    }
}

/** Dispatch on the document's "schema" string; false when unsupported. */
bool
extractMetrics(const JsonValue &doc, const std::string &schema,
               MetricMap &out)
{
    if (schema == "dnastore.run_report") {
        extractRunReport(doc, out);
        return true;
    }
    if (schema == "dnastore.bench_table3") {
        extractBenchTable3(doc, out);
        return true;
    }
    return false;
}

/**
 * Regression test for one row: it regresses when current exceeds
 * baseline by more than max(relative slack, absolute floor).  The
 * mirror-image check marks genuine improvements, which gate nothing but
 * are worth surfacing in the report.
 */
RowStatus
judge(double baseline, double current, const ReportDiffOptions &options)
{
    const double slack =
        std::max(std::abs(baseline) * options.tolerance_pct / 100.0,
                 options.abs_floor);
    if (current - baseline > slack)
        return RowStatus::Regressed;
    if (baseline - current > slack)
        return RowStatus::Improved;
    return RowStatus::Ok;
}

const char *
statusLabel(RowStatus status)
{
    switch (status) {
    case RowStatus::Ok:
        return "ok";
    case RowStatus::Improved:
        return "improved";
    case RowStatus::Regressed:
        return "REGRESSED";
    case RowStatus::BaselineOnly:
        return "baseline-only";
    case RowStatus::CurrentOnly:
        return "current-only";
    }
    return "?";
}

std::string
fmtValue(const std::optional<double> &value)
{
    if (!value.has_value())
        return "-";
    std::ostringstream out;
    out << std::fixed << std::setprecision(4) << *value;
    return out.str();
}

std::string
fmtDelta(const DiffRow &row)
{
    if (!row.baseline.has_value() || !row.current.has_value())
        return "-";
    const double delta = *row.current - *row.baseline;
    std::ostringstream out;
    out << std::showpos << std::fixed << std::setprecision(4) << delta;
    if (std::abs(*row.baseline) > 0.0) {
        out << " (" << std::setprecision(1)
            << 100.0 * delta / std::abs(*row.baseline) << "%)";
    }
    return out.str();
}

bool
writeMarkdown(const std::string &path, const std::string &schema,
              const std::vector<DiffRow> &rows,
              const ReportDiffOptions &options, std::size_t regressions)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << "# Performance report diff (`" << schema << "`)\n\n";
    out << (regressions == 0
                ? "No regressions beyond tolerance"
                : std::to_string(regressions) + " metric(s) REGRESSED")
        << " (tolerance " << options.tolerance_pct << "%, floor "
        << options.abs_floor << ").\n\n";
    out << "| metric | baseline | current | delta | status |\n";
    out << "|---|---:|---:|---:|---|\n";
    for (const DiffRow &row : rows) {
        out << "| `" << row.name << "` | " << fmtValue(row.baseline)
            << " | " << fmtValue(row.current) << " | " << fmtDelta(row)
            << " | " << statusLabel(row.status) << " |\n";
    }
    out << "\n";
    return out.good();
}

} // namespace

int
reportDiff(const std::string &baseline_path,
           const std::string &current_path,
           const ReportDiffOptions &options)
{
    const auto baseline_doc = loadDocument(baseline_path);
    if (!baseline_doc.has_value())
        return 2;
    const auto current_doc = loadDocument(current_path);
    if (!current_doc.has_value())
        return 2;

    const JsonValue *baseline_schema = baseline_doc->find("schema");
    const JsonValue *current_schema = current_doc->find("schema");
    const std::string *baseline_name =
        baseline_schema != nullptr ? baseline_schema->asString() : nullptr;
    const std::string *current_name =
        current_schema != nullptr ? current_schema->asString() : nullptr;
    if (baseline_name == nullptr || current_name == nullptr) {
        std::cerr << "report diff: missing \"schema\" key\n";
        return 2;
    }
    if (*baseline_name != *current_name) {
        std::cerr << "report diff: schema mismatch (" << *baseline_name
                  << " vs " << *current_name << ")\n";
        return 2;
    }

    MetricMap baseline_metrics;
    MetricMap current_metrics;
    if (!extractMetrics(*baseline_doc, *baseline_name,
                        baseline_metrics) ||
        !extractMetrics(*current_doc, *current_name, current_metrics)) {
        std::cerr << "report diff: unsupported schema \"" << *baseline_name
                  << "\"\n";
        return 2;
    }
    if (baseline_metrics.empty() && current_metrics.empty()) {
        std::cerr << "report diff: no comparable metrics found\n";
        return 2;
    }

    std::vector<DiffRow> rows;
    std::size_t regressions = 0;
    for (const auto &[name, base] : baseline_metrics) {
        DiffRow row;
        row.name = name;
        row.baseline = base;
        const auto it = current_metrics.find(name);
        if (it == current_metrics.end()) {
            row.status = RowStatus::BaselineOnly;
        } else {
            row.current = it->second;
            row.status = judge(base, it->second, options);
            if (row.status == RowStatus::Regressed)
                ++regressions;
        }
        rows.push_back(std::move(row));
    }
    for (const auto &[name, cur] : current_metrics) {
        if (baseline_metrics.find(name) != baseline_metrics.end())
            continue;
        DiffRow row;
        row.name = name;
        row.current = cur;
        row.status = RowStatus::CurrentOnly;
        rows.push_back(std::move(row));
    }

    std::cout << "report diff: " << *baseline_name << " ("
              << baseline_path << " -> " << current_path << ")\n";
    std::size_t name_width = 6;
    for (const DiffRow &row : rows)
        name_width = std::max(name_width, row.name.size());
    std::cout << std::left << std::setw(static_cast<int>(name_width) + 2)
              << "metric" << std::right << std::setw(12) << "baseline"
              << std::setw(12) << "current" << std::setw(20) << "delta"
              << "  status\n";
    for (const DiffRow &row : rows) {
        std::cout << std::left
                  << std::setw(static_cast<int>(name_width) + 2)
                  << row.name << std::right << std::setw(12)
                  << fmtValue(row.baseline) << std::setw(12)
                  << fmtValue(row.current) << std::setw(20)
                  << fmtDelta(row) << "  " << statusLabel(row.status)
                  << "\n";
    }
    if (regressions == 0)
        std::cout << "OK: all metrics within " << options.tolerance_pct
                  << "% (floor " << options.abs_floor << ")\n";
    else
        std::cout << "FAIL: " << regressions
                  << " metric(s) regressed beyond "
                  << options.tolerance_pct << "% (floor "
                  << options.abs_floor << ")\n";

    if (!options.markdown_path.empty() &&
        !writeMarkdown(options.markdown_path, *baseline_name, rows, options,
                       regressions)) {
        std::cerr << "report diff: cannot write "
                  << options.markdown_path << "\n";
        return 2;
    }
    return regressions == 0 ? 0 : 1;
}

int
cmdReport(int argc, char **argv)
{
    const auto usage = [] {
        std::cerr
            << "usage: dnastore report diff <baseline.json> "
               "<current.json>\n"
               "           [--tolerance-pct N] [--abs-floor N] "
               "[--markdown FILE]\n";
        return 2;
    };
    if (argc < 3)
        return usage();
    const std::string verb = argv[2];
    if (verb != "diff")
        return usage();

    ReportDiffOptions options;
    std::vector<std::string> paths;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto numberArg = [&](double &slot) -> bool {
            if (i + 1 >= argc)
                return false;
            char *end = nullptr;
            const double parsed = std::strtod(argv[++i], &end);
            if (end == nullptr || *end != '\0')
                return false;
            slot = parsed;
            return true;
        };
        if (arg == "--tolerance-pct") {
            if (!numberArg(options.tolerance_pct))
                return usage();
        } else if (arg == "--abs-floor") {
            if (!numberArg(options.abs_floor))
                return usage();
        } else if (arg == "--markdown") {
            if (i + 1 >= argc)
                return usage();
            options.markdown_path = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "report diff: unknown flag " << arg << "\n";
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        return usage();
    return reportDiff(paths[0], paths[1], options);
}

} // namespace dnastore::tools
