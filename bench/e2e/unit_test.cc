/**
 * @file
 * Unit cases for the per-get latency split of the serve workloads'
 * traced runs.  Exit status 0 when every case holds.  Registered as the
 * bench_e2e_unit ctest.
 */

#include <iostream>

#include "e2e/bench.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "FAIL " << what << "\n";
        ++failures;
    }
}

/** The split tiles [due, done] with parts that never run backwards. */
bool
tiles(const dnastore::bench::LatencySplit &s, double due, double done)
{
    return due <= s.fetch_begin && s.fetch_begin <= s.fetch_end &&
           s.fetch_end <= done;
}

} // namespace

int
main()
{
    using dnastore::bench::splitLatency;

    // Due before the fetch started: queue, whole fetch, reply.
    auto s = splitLatency(1.0, 2.0, 3.0, 3.5);
    expect(tiles(s, 1.0, 3.5) && s.fetch_begin == 2.0 && s.fetch_end == 3.0,
           "get queued before its fetch");

    // Joined a running fetch: no queue, the rest of the fetch, reply.
    s = splitLatency(2.5, 2.0, 3.0, 3.5);
    expect(tiles(s, 2.5, 3.5) && s.fetch_begin == 2.5 && s.fetch_end == 3.0,
           "get joined a running fetch");

    // Joined after the backend returned but before the scheduler claimed
    // the waiters: no queue and no fetch, all reply.
    s = splitLatency(3.2, 2.0, 3.0, 3.5);
    expect(tiles(s, 3.2, 3.5) && s.fetch_begin == 3.2 && s.fetch_end == 3.2,
           "get joined after the fetch returned");

    if (failures == 0)
        std::cout << "bench_e2e_unit: all cases passed\n";
    return failures == 0 ? 0 : 1;
}
