/**
 * @file
 * Thread CPU clock: nanoseconds of CPU actually consumed by the calling
 * thread (CLOCK_THREAD_CPUTIME_ID), as opposed to wall time elapsed.
 *
 * Comparing the two is the cheapest possible utilization probe: a stage
 * whose cpu/wall ratio is near 1.0 is compute-bound on its own thread; a
 * ratio near 0.0 means the thread mostly waited (lock, condvar, IO, or
 * work delegated to pool workers — whose CPU shows up in the
 * `util.thread_pool.task_cpu_seconds` histogram instead).
 *
 * On platforms without a per-thread CPU clock threadCpuNanos() returns
 * 0, so derived ratios degrade to 0 rather than lying.
 */

#pragma once

#include <cstdint>

namespace dnastore::obs
{

/** CPU time consumed by the calling thread, in nanoseconds (0 when the
 *  platform has no per-thread CPU clock). */
std::uint64_t threadCpuNanos();

/** True when threadCpuNanos() is backed by a real clock. */
bool threadCpuClockAvailable();

} // namespace dnastore::obs
