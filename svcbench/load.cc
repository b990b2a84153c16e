/**
 * @file
 * Implementation of the closed-loop load generator.
 */

#include "load.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <semaphore>

#include "base/time_util.h"
#include "ostrace/ostrace.h"
#include "rpc/client.h"

namespace svcbench {

using namespace musuite;

Counters
sampleCounters()
{
    Counters counters;
    counters.at = nowNanos();
    counters.cpuSeconds = processCpuSeconds();
    counters.switches = sampleContextSwitches();
    counters.syscalls = snapshotSyscalls();
    counters.allocs = allocCounts();
    counters.ticks = readCpuTicks();
    counters.threads = threadCount();
    return counters;
}

namespace {

constexpr int kMaxWindow = 1024;
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;

/** Shared with completion callbacks; outlives the client. */
struct Flight
{
    ServiceCheck *check = nullptr;
    Record *records = nullptr;
    std::mutex freedMu;
    std::vector<int64_t> *freed = nullptr; //!< Guarded by freedMu.
    std::counting_semaphore<kMaxWindow> slots{0};
};

void
issue(rpc::RpcClient &client, Flight &flight, size_t seq)
{
    Record &record = flight.records[seq];
    record.latNs = 0;
    record.verdict = Verdict::Pending;
    record.token = flight.check->onIssue(seq);
    record.send = nowNanos();
    Flight *f = &flight;
    client.call(
        flight.check->method(), flight.check->body(seq),
        [f, seq](const Status &status, std::string_view payload) {
            Record &r = f->records[seq];
            r.latNs = uint32_t(std::clamp<int64_t>(nowNanos() - r.send, 0,
                                                   UINT32_MAX));
            r.verdict = status.isOk()
                            ? f->check->onReply(seq, r.token, payload)
                            : Verdict::Failed;
            {
                std::lock_guard<std::mutex> lock(f->freedMu);
                f->freed->push_back(nowNanos());
            }
            f->slots.release();
        });
}

void
startWindow(RunLog &log, size_t seq, int64_t at)
{
    log.measuredFrom = seq;
    log.measureStart = at;
    (void)osTrace().collect(); // Window the Active-Exe histogram.
    log.before = sampleCounters();
}

} // namespace

RunLog
runLoad(uint16_t port, ServiceCheck &check, const LoadSpec &spec)
{
    RunLog log;
    const size_t capacity = spec.maxRequests;
    const int window = std::clamp(spec.window, 1, kMaxWindow);
    log.records = std::make_unique_for_overwrite<Record[]>(capacity);
    log.window = size_t(window);
    log.freed.reserve(capacity);

    Flight flight;
    flight.check = &check;
    flight.records = log.records.get();
    flight.freed = &log.freed;

    rpc::ClientOptions options;
    options.connections = spec.connections;
    options.name = "front";
    rpc::RpcClient client(port, options);
    log.idBase = client.callsIssued() + 1;

    const int64_t t0 = nowNanos();
    const int64_t boundary = t0 + spec.warmupNs;
    log.measureEnd = boundary + spec.measureNs;
    log.measuredFrom = capacity;
    flight.slots.release(window);
    size_t seq = 0;
    while (seq < capacity) {
        flight.slots.acquire();
        const int64_t now = nowNanos();
        if (now >= log.measureEnd) {
            flight.slots.release();
            break;
        }
        if (log.measuredFrom == capacity && now >= boundary)
            startWindow(log, seq, now);
        issue(client, flight, seq++);
    }
    log.measureEnd = std::min(log.measureEnd, nowNanos());
    for (int i = 0; i < window; ++i) {
        if (!flight.slots.try_acquire_for(
                std::chrono::nanoseconds(kDrainTimeoutNs))) {
            break;
        }
    }
    log.issued = seq;
    if (log.measuredFrom == capacity)
        startWindow(log, seq, nowNanos());
    log.after = sampleCounters();
    log.activeExeP50Ns =
        osTrace().collect()[size_t(OsCategory::ActiveExe)]
            .valueAtQuantile(0.5);
    log.idsContiguous = client.callsIssued() + 1 - log.idBase == seq;
    return log;
}

} // namespace svcbench
