#include "e2e/trace.hh"

#include <algorithm>

#include "obs/json.hh"
#include "obs/report.hh"

namespace dnastore::bench
{

std::uint64_t
SpanRecorder::add(std::string name, double start_s, double end_s,
                  std::uint64_t parent, std::uint64_t request)
{
    MutexLock lock(mu_);
    SpanRecord span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start_s = start_s;
    span.end_s = end_s;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    MutexLock lock(mu_);
    return spans_;
}

bool
SpanRecorder::write(const std::string &path) const
{
    const std::vector<SpanRecord> all = spans();
    double epoch = 0.0;
    if (!all.empty()) {
        epoch = std::min_element(all.begin(), all.end(),
                                 [](const SpanRecord &a,
                                    const SpanRecord &b) {
                                     return a.start_s < b.start_s;
                                 })
                    ->start_s;
    }
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("dnastore.bench_spans");
    json.key("spans");
    json.beginArray();
    for (const SpanRecord &span : all) {
        json.beginObject();
        json.key("id");
        json.value(span.id);
        json.key("parent");
        json.value(span.parent);
        json.key("request");
        json.value(span.request);
        json.key("name");
        json.value(span.name);
        json.key("start_s");
        json.value(span.start_s - epoch);
        json.key("end_s");
        json.value(span.end_s - epoch);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return obs::writeTextFile(path, json.text());
}

} // namespace dnastore::bench
