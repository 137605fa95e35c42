/**
 * @file
 * Wall-clock timing helpers used by the pipeline latency benchmarks.
 */

#pragma once

#include <chrono>
#include <cstdint>

namespace dnastore
{

/** Simple wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start = Clock::now(); }

    /** Seconds elapsed since construction/reset. */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start).count();
    }

    /** Milliseconds elapsed since construction/reset. */
    double milliseconds() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
};

} // namespace dnastore

