/**
 * @file
 * Front-end load generator: a closed loop over one rpc::RpcClient. A
 * fixed window of requests is outstanding; a request is sent from one
 * thread as soon as a completion frees a slot, and timed from that
 * send. One issuing thread keeps the client's wire request ids
 * consecutive, so request `seq` carries id idBase + seq (the traced run
 * links mid-tier spans to front-end records through it).
 *
 * A run is a warm-up followed by the measured window; process and
 * host counters are sampled at the window's two ends.
 */

#ifndef SVCBENCH_LOAD_H
#define SVCBENCH_LOAD_H

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc_hook.h"
#include "checks.h"
#include "host.h"
#include "ostrace/rusage.h"
#include "ostrace/syscalls.h"

namespace svcbench {

struct LoadSpec
{
    int window = 32;       //!< Outstanding requests.
    int connections = 1;   //!< Front-end client connections.
    int64_t warmupNs = 250'000'000;
    int64_t measureNs = 10'000'000'000;
    size_t maxRequests = 0; //!< Record capacity.
};

/** Process-wide counters at one instant. */
struct Counters
{
    int64_t at = 0;
    double cpuSeconds = 0.0;
    musuite::ContextSwitches switches;
    musuite::SyscallSnapshot syscalls{};
    AllocCounts allocs;
    CpuTicks ticks;
    int threads = 0;
};

Counters sampleCounters();

/** Everything one run recorded. */
struct RunLog
{
    std::unique_ptr<Record[]> records;
    size_t issued = 0;
    size_t measuredFrom = 0;     //!< First request of the window.
    size_t window = 0;           //!< Outstanding requests.
    /**
     * When each completion freed its slot, in the order the slots were
     * freed. Request seq >= window reuses slot freed[seq - window].
     */
    std::vector<int64_t> freed;
    int64_t measureStart = 0;
    int64_t measureEnd = 0;      //!< Issuing stopped.
    uint64_t idBase = 0;         //!< Wire id of request 0.
    bool idsContiguous = false;
    Counters before;
    Counters after;
    int64_t activeExeP50Ns = 0;  //!< ostrace Active-Exe over the window.

    /** How long request `seq`'s slot stayed free before its send. */
    int64_t
    lateNs(size_t seq) const
    {
        return seq < window ? 0 : records[seq].send - freed[seq - window];
    }
};

/** Load the mid-tier at `port`. */
RunLog runLoad(uint16_t port, ServiceCheck &check, const LoadSpec &spec);

} // namespace svcbench

#endif // SVCBENCH_LOAD_H
