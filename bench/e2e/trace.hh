/**
 * @file
 * The benchmark's own span recorder.  Spans are recorded from the
 * benchmark around calls into each layer's public functions, kept in
 * memory and written out when the run ends (spans.json in the trace
 * directory; format in bench/e2e/README.md).
 *
 * Every span carries its parent span id (0 = root) and the id of the
 * request it belongs to (0 = none), so the spans of one operation can
 * be gathered and a layer's self time computed from its children.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace dnastore::bench
{

/** One finished span. */
struct SpanRecord
{
    std::uint64_t id = 0;      //!< 1-based, unique within a run.
    std::uint64_t parent = 0;  //!< Enclosing span id; 0 for a root.
    std::uint64_t request = 0; //!< Operation the span belongs to; 0 = none.
    std::string name;          //!< "layer/what", e.g. "clustering/cluster".
    double start_s = 0.0;      //!< bench::nowSeconds() at start.
    double end_s = 0.0;        //!< bench::nowSeconds() at end.
};

/** Thread-safe in-memory span log. */
class SpanRecorder
{
  public:
    /** Record a finished span and return its id. */
    std::uint64_t add(std::string name, double start_s, double end_s,
                      std::uint64_t parent, std::uint64_t request);

    /** Copy of every span recorded so far, in id order. */
    [[nodiscard]] std::vector<SpanRecord> spans() const;

    /**
     * Write the spans as JSON (schema dnastore.bench_spans), times in
     * seconds relative to the earliest span.  False on I/O failure.
     */
    [[nodiscard]] bool write(const std::string &path) const;

  private:
    mutable Mutex mu_{"bench.spans"};
    std::vector<SpanRecord> spans_ DNASTORE_GUARDED_BY(mu_);
};

} // namespace dnastore::bench
