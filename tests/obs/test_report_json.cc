// Report serialisation: the canonical metrics JSON against a checked-in
// golden file (byte-stable schema), the run-report document structure,
// and JsonWriter escaping rules.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/run_report.hh"
#include "obs/json.hh"
#include "obs/report.hh"

#ifndef DNASTORE_OBS_GOLDEN_DIR
#error "DNASTORE_OBS_GOLDEN_DIR must point at tests/obs"
#endif

namespace
{

using dnastore::PipelineResult;
using dnastore::RunInfo;
using dnastore::runReportJson;
using dnastore::obs::GaugeSnapshot;
using dnastore::obs::HistogramSnapshot;
using dnastore::obs::JsonWriter;
using dnastore::obs::MetricsSnapshot;
using dnastore::obs::jsonEscape;
using dnastore::obs::metricsJson;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
stripTrailingWhitespace(std::string text)
{
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    return text;
}

/** The fixed snapshot the golden file was generated from. */
MetricsSnapshot
goldenSnapshot()
{
    MetricsSnapshot snap;
    snap.counters["decoding.rs_rows_total"] = 30;
    snap.counters["pipeline.runs_total"] = 1;
    snap.gauges["util.thread_pool.queue_depth"] = GaugeSnapshot{2.0, 7.0};
    HistogramSnapshot hist;
    hist.upper_bounds = {0.5, 1.0};
    hist.counts = {3, 1, 0};
    hist.total_count = 4;
    hist.sum = 2.25;
    snap.histograms["pipeline.task_seconds"] = hist;
    return snap;
}

TEST(MetricsJson, MatchesGoldenFile)
{
    const std::string golden = stripTrailingWhitespace(
        readFile(std::string(DNASTORE_OBS_GOLDEN_DIR) +
                 "/golden_metrics.json"));
    ASSERT_FALSE(golden.empty());
    // Byte-for-byte: key order, number formatting and schema framing
    // are all part of the contract (docs/OBSERVABILITY.md).  If this
    // fails after an intentional schema change, bump kSchemaVersion and
    // regenerate the golden file.
    EXPECT_EQ(metricsJson(goldenSnapshot()), golden);
}

TEST(MetricsJson, IsDeterministic)
{
    EXPECT_EQ(metricsJson(goldenSnapshot()), metricsJson(goldenSnapshot()));
}

TEST(RunReportJson, ContainsEverySection)
{
    PipelineResult result;
    result.encoded_strands = 42;
    result.report.ok = true;
    // emplace, not operator[] plus assignment: GCC 12 at -O3 reports a
    // false -Werror=restrict inside the inlined string assignment.
    RunInfo info;
    info.emplace("tool", "test");
    info.emplace("seed", "7");
    const std::string json = runReportJson(result, info);

    EXPECT_NE(json.find("\"schema\":\"dnastore.run_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
    EXPECT_NE(json.find("\"run\":{\"seed\":\"7\",\"tool\":\"test\"}"),
              std::string::npos);
    for (const char *section :
         {"\"stages\":", "\"pipeline\":", "\"faults\":",
          "\"recovery_attempts\":", "\"errors\":", "\"metrics\":",
          "\"contention\":"})
        EXPECT_NE(json.find(section), std::string::npos) << section;
    // schema_version 3 dropped the allocation-profiler section.
    EXPECT_EQ(json.find("\"alloc\":"), std::string::npos);
    for (const char *stage :
         {"\"encoding\":", "\"simulation\":", "\"clustering\":",
          "\"reconstruction\":", "\"decoding\":", "\"total_seconds\":",
          "\"total_cpu_seconds\":"})
        EXPECT_NE(json.find(stage), std::string::npos) << stage;
    // Since schema_version 2 every stage object carries CPU attribution.
    for (const char *field :
         {"\"cpu_seconds\":", "\"utilization\":", "\"sample_every\":",
          "\"mutexes\":"})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    EXPECT_NE(json.find("\"encoded_strands\":42"), std::string::npos);
    EXPECT_NE(json.find("\"decode_ok\":true"), std::string::npos);
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(JsonWriter, BuildsNestedStructures)
{
    JsonWriter json;
    json.beginObject();
    json.key("list");
    json.beginArray();
    json.value(std::uint64_t{1});
    json.value(false);
    json.value("x");
    json.endArray();
    json.key("obj");
    json.beginObject();
    json.key("pi");
    json.value(0.25);
    json.endObject();
    json.endObject();
    EXPECT_EQ(json.text(),
              "{\"list\":[1,false,\"x\"],\"obj\":{\"pi\":0.25}}");
}

} // namespace
