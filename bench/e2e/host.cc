#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <sched.h>

#include "e2e/bench.hh"

namespace dnastore::bench
{

namespace
{

/** First line of a file, or "" when it cannot be read. */
std::string
firstLine(const char *path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/**
 * The CPU quota of this process's cgroup as cgroup v2 spells it
 * ("max 100000" = unlimited, "200000 100000" = two CPUs).  cgroup v1
 * quota/period files are translated into the same form.
 */
std::string
cgroupCpuMax()
{
    const std::string v2 = firstLine("/sys/fs/cgroup/cpu.max");
    if (!v2.empty())
        return v2;
    const std::string quota = firstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    const std::string period =
        firstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    if (quota.empty() || period.empty())
        return "unknown";
    return (quota == "-1" ? std::string("max") : quota) + " " + period;
}

} // namespace

void
writeHost(obs::JsonWriter &json)
{
    json.beginObject();
    json.key("hardware_concurrency");
    json.value(std::uint64_t{std::thread::hardware_concurrency()});
    cpu_set_t set;
    CPU_ZERO(&set);
    std::uint64_t affinity = 0;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        affinity = static_cast<std::uint64_t>(CPU_COUNT(&set));
    json.key("affinity_cpus");
    json.value(affinity);
    json.key("cgroup_cpu_max");
    json.value(cgroupCpuMax());
    double load[1] = {0.0};
    json.key("loadavg_1m");
    json.value(getloadavg(load, 1) == 1 ? load[0] : -1.0);
    // Compile definitions from bench/e2e/CMakeLists.txt.
    json.key("build_type");
    json.value(DNASTORE_BENCH_BUILD_TYPE);
    json.key("compiler");
    json.value(DNASTORE_BENCH_COMPILER);
    json.endObject();
}

} // namespace dnastore::bench
