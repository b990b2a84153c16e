/**
 * @file
 * Implementation of the process and host counters.
 */

#include "host.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/resource.h>

namespace svcbench {

CpuTicks
readCpuTicks()
{
    CpuTicks ticks;
    std::ifstream stat("/proc/stat");
    std::string label;
    uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
             irq = 0, softirq = 0, steal = 0;
    if (!(stat >> label >> user >> nice >> system >> idle >> iowait >>
          irq >> softirq >> steal) ||
        label != "cpu") {
        return ticks;
    }
    ticks.busy = user + nice + system + irq + softirq;
    ticks.steal = steal;
    ticks.total = ticks.busy + steal + idle + iowait;
    return ticks;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

int
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return 0;
}

} // namespace svcbench
