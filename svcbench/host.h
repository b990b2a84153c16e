/**
 * @file
 * Process and host counters sampled around a measured window: CPU
 * time and context switches (getrusage), peak RSS, and the host's
 * busy/steal ticks from /proc/stat.
 */

#ifndef SVCBENCH_HOST_H
#define SVCBENCH_HOST_H

#include <cstdint>

namespace svcbench {

/** Aggregate "cpu" line of /proc/stat, in clock ticks. */
struct CpuTicks
{
    uint64_t busy = 0;  //!< user + nice + system + irq + softirq.
    uint64_t steal = 0; //!< Time the hypervisor ran someone else.
    uint64_t total = 0; //!< All of the above plus idle and iowait.
};

/** Zeroes if /proc/stat is unreadable. */
CpuTicks readCpuTicks();

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** Threads this process runs now (0 if /proc is unreadable). */
int threadCount();

} // namespace svcbench

#endif // SVCBENCH_HOST_H
