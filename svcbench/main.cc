/**
 * @file
 * svcbench: end-to-end and per-layer benchmark of the µSuite paper
 * services over loopback TCP, every tier in this process.
 *
 *   svcbench --workload W --seed N --seconds S --trace 0|1
 *
 * Workloads, both closed loop with 32 outstanding requests from one
 * thread over 4 connections, so every thread is busy:
 *  - router_sat: Router (16 leaves × 3 replicas), YCSB-A 50/50 get/set
 *    over Zipfian keys: fixed per-request CPU in rpc/net/serde/kv sets
 *    throughput.
 *  - setalgebra_high: Set Algebra (4 leaves): requests queue and wait
 *    for the slowest of 4 posting-list intersections.
 * Open-loop workloads at partial load are left out: on a shared VM
 * their latency and CPU per request follow the host's load for
 * minutes at a time (DIAGNOSIS.md).
 *
 * A run measures --seconds as that many one-second segments, each on a
 * fresh deployment (see kSegmentNs). --trace 0 runs the shipping
 * deployment and prints the end-to-end metrics; the timings among them
 * are medians over the segments in which the host stole little CPU
 * time (see kMaxStealFrac). --trace 1 alternates shipping segments,
 * which give the counter-based per-layer metrics (syscalls, context
 * switches, allocations, host) and the windowed p99, with segments of
 * the traced rebuild (deploy.h, trace.h) on the same inputs, which give
 * the span-based ones. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. A wrong answer, or a
 * corrupted answer the checks fail to reject, makes the exit code 1.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/time_util.h"
#include "checks.h"
#include "deploy.h"
#include "load.h"
#include "host.h"
#include "rpc/client.h"
#include "trace.h"

using namespace musuite;
using namespace svcbench;

namespace {

constexpr int64_t kSecond = 1'000'000'000;
/** Fewest samples a window needs for its p99 (ten beyond it). */
constexpr size_t kMinTailSamples = 1000;

struct Workload
{
    const char *name;
    ServiceKind kind;
    LoadSpec load;
};

std::vector<Workload>
workloads()
{
    LoadSpec saturating;
    saturating.window = 32;
    saturating.connections = 4;
    return {{"router_sat", ServiceKind::Router, saturating},
            {"setalgebra_high", ServiceKind::SetAlgebra, saturating}};
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atoi(value);
        else if (key == "--trace")
            args.trace = std::atoi(value);
        else
            MUSUITE_PANIC() << "unknown flag " << key;
    }
    MUSUITE_CHECK(args.seconds >= 1) << "--seconds must be >= 1";
    MUSUITE_CHECK(args.trace == 0 || args.trace == 1)
        << "--trace must be 0 or 1";
    return args;
}

// ---------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------

/** Nearest-rank quantile; sorts `values`. 0 when empty. */
double
quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = size_t(std::ceil(q * double(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / double(values.size());
}

/** Middle value; the mean of the two middle ones for even counts. */
double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2)
        return upper;
    return (*std::max_element(values.begin(), values.begin() + mid) +
            upper) / 2.0;
}

double
perReq(uint64_t count, uint64_t requests)
{
    return requests ? double(count) / double(requests) : 0.0;
}

// ---------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void
    print(bool correct, uint64_t attempted, uint64_t failed) const
    {
        for (const Metric &m : metrics) {
            std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (size_t i = 0; i < metrics.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    std::vector<Metric> metrics;
};

// ---------------------------------------------------------------------
// One segment: deploy, load, check
// ---------------------------------------------------------------------

/**
 * A run is a series of segments, each a fresh deployment set up,
 * warmed, measured for about kSegmentNs and torn down. Deployments
 * differ run to run in how their 23–71 threads land on the cores, so
 * the end-to-end metrics are medians over many short segments.
 */
constexpr int64_t kSegmentNs = kSecond;

/** Steal share above which a segment's timings are set aside. */
constexpr double kMaxStealFrac = 0.05;

/** Block until the service answers one request. */
void
awaitFirstAnswer(uint16_t port, ServiceCheck &check)
{
    rpc::RpcClient probe(port);
    for (int attempt = 0; attempt < 1000; ++attempt) {
        if (probe.callSync(check.method(), check.body(0)).isOk())
            return;
        sleepForNanos(1'000'000);
    }
    MUSUITE_PANIC() << "service never answered";
}

/** One deployment driven once: its measured window, checked. */
struct Segment
{
    RunLog log;
    double setupS = 0.0;
    uint64_t attempted = 0;
    uint64_t answered = 0;
    uint64_t wrong = 0; //!< Failed a check (inline or sample).
    uint64_t degraded = 0;
    double p50Us = 0.0;
    double latSumUs = 0.0; //!< Over answered requests.
    double qps = 0.0;
    double cpuUsPerReq = 0.0;
    std::vector<double> windowP99Us; //!< Windows with enough samples.
    SampleResult sample;
    bool selfTestOk = false;

    uint64_t failed() const { return attempted - answered + sample.wrong; }

    /** Share of the measured window the host ran others on our vCPUs. */
    double
    stealFrac() const
    {
        return perReq(log.after.ticks.steal - log.before.ticks.steal,
                      log.after.ticks.total - log.before.ticks.total);
    }

    bool
    correct() const
    {
        return wrong == 0 && selfTestOk && sample.checked > 0;
    }
};

/**
 * p99 of each time window of the measured interval (by send), for
 * windows of a second or more holding at least kMinTailSamples
 * answers, so ten or more lie beyond each p99.
 */
std::vector<double>
windowP99s(const RunLog &log, int64_t measure_ns, size_t samples)
{
    const size_t windows = std::clamp<size_t>(
        samples / (kMinTailSamples * 3 / 2), 1,
        size_t(std::max<int64_t>(1, measure_ns / kSecond)));
    const int64_t width =
        std::max<int64_t>(1, measure_ns / int64_t(windows));
    std::vector<std::vector<double>> buckets(windows);
    for (size_t seq = log.measuredFrom; seq < log.issued; ++seq) {
        const Record &r = log.records[seq];
        if (!answered(r.verdict))
            continue;
        const int64_t offset = log.records[seq].send - log.measureStart;
        const size_t w = std::min<size_t>(
            windows - 1, size_t(std::max<int64_t>(0, offset) / width));
        buckets[w].push_back(double(r.latNs) / 1e3);
    }
    std::vector<double> tails;
    for (auto &bucket : buckets) {
        if (bucket.size() >= kMinTailSamples)
            tails.push_back(quantile(bucket, 0.99));
    }
    return tails;
}

Segment
runSegment(const Workload &workload, const DeploymentOptions &options,
           ServiceCheck &check, uint64_t seed, bool traced)
{
    LoadSpec spec = workload.load;
    spec.measureNs = kSegmentNs;
    const int64_t total_ns = spec.warmupNs + spec.measureNs;
    spec.maxRequests = size_t(double(total_ns) * 200'000e-9) + 1;
    check.prepare(seed, 1 << 16); // Pool reused round-robin.

    Segment seg;
    const int64_t setup_start = nowNanos();
    std::unique_ptr<Running> running =
        deploy(workload.kind, options, traced);
    awaitFirstAnswer(running->port(), check);
    seg.setupS = double(nowNanos() - setup_start) / 1e9;
    seg.log = runLoad(running->port(), check, spec);
    running.reset(); // Joins every service thread.

    const RunLog &log = seg.log;
    std::vector<double> lat_us, late_us;
    int64_t last_done = log.measureStart;
    for (size_t seq = log.measuredFrom; seq < log.issued; ++seq) {
        const Record &r = log.records[seq];
        ++seg.attempted;
        late_us.push_back(double(log.lateNs(seq)) / 1e3);
        seg.wrong += r.verdict == Verdict::Wrong;
        if (!answered(r.verdict))
            continue;
        ++seg.answered;
        seg.degraded += r.verdict == Verdict::Degraded;
        lat_us.push_back(double(r.latNs) / 1e3);
        seg.latSumUs += lat_us.back();
        last_done = std::max(last_done, r.send + int64_t(r.latNs));
    }
    seg.p50Us = quantile(lat_us, 0.5);
    seg.windowP99Us = windowP99s(log, spec.measureNs, seg.answered);
    seg.qps = double(seg.answered) * 1e9 /
              double(std::max<int64_t>(1, last_done - log.measureStart));
    seg.cpuUsPerReq = (log.after.cpuSeconds - log.before.cpuSeconds) *
                      1e6 / double(std::max<uint64_t>(1, seg.answered));
    seg.sample = check.checkSample(log.records.get(), log.measuredFrom,
                                   log.issued);
    seg.wrong += seg.sample.wrong;
    seg.selfTestOk = check.rejectsCorruption(
        log.records.get(), log.measuredFrom, log.issued);
    std::printf("# %s segment: setup %.4f s, %" PRIu64
                " attempted, %" PRIu64 " answered, %" PRIu64
                " wrong, %.0f QPS, p50 %.1f us, cpu %.1f us/req, "
                "window p99 %.0f us, steal %" PRIu64 "/%" PRIu64
                " ticks, %" PRIu64 " involuntary switches, %d threads, "
                "late p99 %.0f us, sample %" PRIu64
                ", corrupted answer %s\n",
                traced ? "traced  " : "untraced", seg.setupS,
                seg.attempted, seg.answered, seg.wrong, seg.qps, seg.p50Us,
                seg.cpuUsPerReq,
                seg.windowP99Us.empty() ? 0.0 : seg.windowP99Us[0],
                log.after.ticks.steal - log.before.ticks.steal,
                log.after.ticks.total - log.before.ticks.total,
                log.after.switches.involuntary -
                    log.before.switches.involuntary,
                log.after.threads, quantile(late_us, 0.99),
                seg.sample.checked,
                seg.selfTestOk ? "rejected" : "NOT rejected");
    return seg;
}

/** Totals over the segments of a run. */
struct Totals
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;

    void
    add(const Segment &seg)
    {
        attempted += seg.attempted;
        failed += seg.failed();
        correct = correct && seg.correct();
    }
};

// ---------------------------------------------------------------------
// End-to-end metrics (--trace 0)
// ---------------------------------------------------------------------

int
runEndToEnd(const Workload &workload, const Args &args)
{
    const DeploymentOptions options = benchOptions();
    const auto check = makeCheck(workload.kind, options);
    const int segments = args.seconds * int(kSecond / kSegmentNs);
    struct Timing
    {
        double steal, setup, p50, qps, cpu;
    };
    std::vector<Timing> timings;
    uint64_t checked = 0;
    double ok_sum = 0.0;
    Totals totals;
    for (int i = 0; i < segments; ++i) {
        const Segment seg = runSegment(workload, options, *check,
                                       args.seed * 1000 + uint64_t(i),
                                       false);
        timings.push_back({seg.stealFrac(), seg.setupS, seg.p50Us, seg.qps,
                           seg.cpuUsPerReq});
        checked += seg.sample.checked;
        ok_sum += seg.sample.answerOkFrac * double(seg.sample.checked);
        totals.add(seg);
    }

    // The host runs other VMs on this one's vCPUs in phases of seconds
    // to minutes, and every timing follows the stolen share
    // (DIAGNOSIS.md). A segment in which the host took a noticeable
    // share measures the host more than the program, so the timings
    // are medians over the segments below kMaxStealFrac, or over the
    // quarter with the least steal when fewer segments qualify.
    std::stable_sort(timings.begin(), timings.end(),
                     [](const Timing &a, const Timing &b) {
                         return a.steal < b.steal;
                     });
    const auto quiet = std::partition_point(
        timings.begin(), timings.end(),
        [](const Timing &t) { return t.steal < kMaxStealFrac; });
    timings.resize(std::max<size_t>({1, timings.size() / 4,
                                     size_t(quiet - timings.begin())}));
    std::vector<double> setups, p50s, qps, cpu;
    for (const Timing &t : timings) {
        setups.push_back(t.setup);
        p50s.push_back(t.p50);
        qps.push_back(t.qps);
        cpu.push_back(t.cpu);
    }
    std::printf("# timings over the %zu of %d segments with the least "
                "host steal (at most %.4f of CPU time)\n",
                timings.size(), segments, timings.back().steal);

    Report report;
    report.add("setup_s", median(setups), "s");
    report.add("p50_us", median(p50s), "us");
    report.add("throughput_qps", median(qps), "1/s");
    report.add("cpu_us_per_req", median(cpu), "us");
    report.add("success_frac", 1.0 - perReq(totals.failed, totals.attempted),
               "frac");
    report.add("answer_ok_frac", checked ? ok_sum / double(checked) : 0.0,
               "frac");
    report.add("rss_mb", peakRssMb(), "MiB");
    report.print(totals.correct, totals.attempted, totals.failed);
    return totals.correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Per-layer metrics (--trace 1)
// ---------------------------------------------------------------------

/** Per-layer observations pooled over the segments of a run. */
struct Layers
{
    // Shipping segments: process counters and the generator.
    uint64_t shippingAnswered = 0;
    SyscallSnapshot syscalls{};
    ContextSwitches switches;
    AllocCounts allocs;
    CpuTicks ticks;
    std::vector<double> lateUs, activeExeUs, untracedP50Us, windowP99Us;
    std::vector<double> getUs, setUs; //!< Router end-to-end by op.

    // Traced segments: spans.
    uint64_t tracedAnswered = 0, tracedDegraded = 0;
    double tracedLatSumUs = 0.0;
    std::vector<double> tracedP50Us;
    std::vector<double> midQueue, midHandler, legWait, merge, wire;
    std::vector<double> legRtt, leafQueue, leafHandler;
    std::vector<double> getLeafUs, setLeafUs;
    uint64_t linked = 0, midLegs = 0, legsFailed = 0, legsUnlinked = 0;

    void addShipping(const Segment &seg, const ServiceCheck &check);
    void addTraced(const Segment &seg, const SpanSet &spans);
    void report(Report &out, const Workload &workload) const;
};

void
Layers::addShipping(const Segment &seg, const ServiceCheck &check)
{
    const RunLog &log = seg.log;
    shippingAnswered += seg.answered;
    for (size_t i = 0; i < numSyscalls; ++i)
        syscalls[i] += log.after.syscalls[i] - log.before.syscalls[i];
    const ContextSwitches cs =
        diffContextSwitches(log.before.switches, log.after.switches);
    switches.voluntary += cs.voluntary;
    switches.involuntary += cs.involuntary;
    allocs.allocs += log.after.allocs.allocs - log.before.allocs.allocs;
    allocs.bytes += log.after.allocs.bytes - log.before.allocs.bytes;
    ticks.busy += log.after.ticks.busy - log.before.ticks.busy;
    ticks.steal += log.after.ticks.steal - log.before.ticks.steal;
    ticks.total += log.after.ticks.total - log.before.ticks.total;
    activeExeUs.push_back(double(log.activeExeP50Ns) / 1e3);
    untracedP50Us.push_back(seg.p50Us);
    windowP99Us.insert(windowP99Us.end(), seg.windowP99Us.begin(),
                       seg.windowP99Us.end());
    for (size_t seq = log.measuredFrom; seq < log.issued; ++seq) {
        const Record &r = log.records[seq];
        lateUs.push_back(double(log.lateNs(seq)) / 1e3);
        if (answered(r.verdict) && check.kvOp(seq) >= 0) {
            (check.kvOp(seq) == 0 ? getUs : setUs)
                .push_back(double(r.latNs) / 1e3);
        }
    }
}

void
Layers::addTraced(const Segment &seg, const SpanSet &spans)
{
    const RunLog &log = seg.log;
    tracedAnswered += seg.answered;
    tracedDegraded += seg.degraded;
    tracedLatSumUs += seg.latSumUs;
    tracedP50Us.push_back(seg.p50Us);
    MUSUITE_CHECK(log.idsContiguous)
        << "front-end wire ids were not consecutive; spans cannot be "
           "linked to requests";

    // Mid-tier spans, indexed by request. Spans from before the first
    // front-end send belong to the set-up probe (its own id space).
    const size_t n = log.issued;
    const int64_t first_send = n ? log.records[0].send : 0;
    struct Mid
    {
        int64_t arrival = 0, start = 0, ret = 0, respond = 0;
        int64_t lastLeg = 0;
        uint32_t legs = 0;
    };
    std::vector<Mid> mids(n);
    auto seqOf = [&](uint64_t id) -> size_t {
        return id >= log.idBase ? size_t(id - log.idBase) : n;
    };
    for (const MidStart &s : spans.midStarts) {
        if (s.arrival >= first_send && seqOf(s.id) < n) {
            Mid &m = mids[seqOf(s.id)];
            m.arrival = s.arrival;
            m.start = s.start;
            m.ret = s.ret;
        }
    }
    for (const MidEnd &e : spans.midEnds) {
        if (e.respond >= first_send && seqOf(e.id) < n)
            mids[seqOf(e.id)].respond = e.respond;
    }
    for (const LegSpan &leg : spans.legs) {
        if (leg.start < first_send)
            continue;
        const size_t seq = seqOf(leg.parent);
        if (seq >= n) {
            ++legsUnlinked;
            continue;
        }
        if (seq < log.measuredFrom)
            continue;
        Mid &m = mids[seq];
        m.lastLeg = std::max(m.lastLeg, leg.end);
        ++m.legs;
        legRtt.push_back(double(leg.end - leg.start) / 1e3);
        legsFailed += !leg.ok;
    }

    // Per request: [arrival, start) mid queue, [start, min(ret,
    // respond)) mid handler, then leg wait up to the last leg's
    // completion, then merge up to the response. Front-end wire is
    // what the client saw outside [arrival, respond].
    for (size_t seq = log.measuredFrom; seq < n; ++seq) {
        const Mid &m = mids[seq];
        const Record &r = log.records[seq];
        if (!answered(r.verdict) || !m.arrival || !m.respond)
            continue;
        ++linked;
        midLegs += m.legs;
        const int64_t done = r.send + int64_t(r.latNs);
        const int64_t b = std::min(m.ret, m.respond);
        const int64_t c = m.legs ? std::clamp(m.lastLeg, b, m.respond) : b;
        midQueue.push_back(double(m.start - m.arrival) / 1e3);
        midHandler.push_back(double(b - m.start) / 1e3);
        legWait.push_back(double(c - b) / 1e3);
        merge.push_back(double(m.respond - c) / 1e3);
        wire.push_back(double((m.arrival - r.send) + (done - m.respond)) /
                       1e3);
    }

    for (const LeafSpan &leaf : spans.leaves) {
        if (leaf.arrival < log.measureStart || leaf.arrival > log.measureEnd)
            continue;
        leafQueue.push_back(double(leaf.start - leaf.arrival) / 1e3);
        leafHandler.push_back(double(leaf.end - leaf.start) / 1e3);
        if (leaf.kvOp >= 0) {
            (leaf.kvOp == 0 ? getLeafUs : setLeafUs)
                .push_back(leafHandler.back());
        }
    }
}

void
Layers::report(Report &out, const Workload &workload) const
{
    const uint64_t n = std::max<uint64_t>(1, shippingAnswered);
    auto sys = [&](Sys which) { return perReq(syscalls[size_t(which)], n); };
    std::vector<double> late = lateUs;
    out.add("e2e.p99_us", median(windowP99Us), "us");
    out.add("loadgen.late_p99_us", quantile(late, 0.99), "us");
    out.add("net.sendmsg_per_req", sys(Sys::Sendmsg), "count");
    out.add("net.recvmsg_per_req", sys(Sys::Recvmsg), "count");
    out.add("net.epoll_wait_per_req", sys(Sys::EpollPwait), "count");
    out.add("base.futex_per_req", sys(Sys::Futex), "count");
    out.add("ostrace.cs_voluntary_per_req", perReq(switches.voluntary, n),
            "count");
    out.add("ostrace.cs_involuntary_per_req",
            perReq(switches.involuntary, n), "count");
    out.add("ostrace.active_exe_p50_us", median(activeExeUs), "us");
    out.add("base.allocs_per_req", perReq(allocs.allocs, n), "count");
    out.add("base.alloc_bytes_per_req", perReq(allocs.bytes, n), "B");
    out.add("host.steal_frac", perReq(ticks.steal, ticks.total), "frac");
    out.add("host.cpu_busy_frac", perReq(ticks.busy, ticks.total), "frac");

    if (getUs.empty() && setUs.empty()) {
        std::printf("# kv.* read 0: %s has no key-value tier\n",
                    workload.name);
    }
    out.add("kv.get_p50_us", median(getUs), "us");
    out.add("kv.set_p50_us", median(setUs), "us");
    out.add("kv.get_leaf_us", mean(getLeafUs), "us");
    out.add("kv.set_leaf_us", mean(setLeafUs), "us");

    std::vector<double> queue = midQueue, leaf_queue = leafQueue,
                        rtt = legRtt, handler = leafHandler;
    const double mean_queue = mean(midQueue), mean_handler = mean(midHandler),
                 mean_wait = mean(legWait), mean_merge = mean(merge),
                 mean_wire = mean(wire);
    out.add("rpc.mid_queue_us", mean_queue, "us");
    out.add("rpc.mid_queue_p99_us", quantile(queue, 0.99), "us");
    out.add("rpc.leaf_queue_us", mean(leafQueue), "us");
    out.add("rpc.leaf_queue_p99_us", quantile(leaf_queue, 0.99), "us");
    out.add("rpc.leg_rtt_us", mean(legRtt), "us");
    out.add("rpc.leg_rtt_p99_us", quantile(rtt, 0.99), "us");
    out.add("rpc.leg_wire_us",
            mean(legRtt) - mean(leafQueue) - mean(leafHandler), "us");
    out.add("rpc.frontend_wire_us", mean_wire, "us");
    out.add("rpc.legs_per_req", perReq(midLegs, linked), "count");
    out.add("rpc.leg_fail_frac", perReq(legsFailed, legRtt.size()), "frac");
    out.add("services.mid_handler_us", mean_handler, "us");
    out.add("services.merge_us", mean_merge, "us");
    out.add("services.leg_wait_us", mean_wait, "us");
    out.add("services.leaf_handler_us", mean(leafHandler), "us");
    out.add("services.leaf_handler_p99_us", quantile(handler, 0.99), "us");
    out.add("services.degraded_frac", perReq(tracedDegraded, tracedAnswered),
            "frac");

    // The spans partition each linked request from its send to its
    // reply, so the residual is nonzero only if answered requests went
    // unlinked; it is printed as a check, not reported as a metric.
    const double traced_mean =
        tracedAnswered ? tracedLatSumUs / double(tracedAnswered) : 0.0;
    const double spans_sum =
        mean_wire + mean_queue + mean_handler + mean_wait + mean_merge;
    out.add("trace.overhead_frac",
            median(tracedP50Us) / median(untracedP50Us) - 1.0, "frac");
    std::printf("# traced mean e2e %.3f us = front-end wire %.3f + mid "
                "queue %.3f + mid handler %.3f + leg wait %.3f + merge "
                "%.3f + residual %.3f (%" PRIu64 "/%" PRIu64
                " requests linked, %" PRIu64 " legs unlinked)\n",
                traced_mean, mean_wire, mean_queue, mean_handler, mean_wait,
                mean_merge, traced_mean - spans_sum, linked, tracedAnswered,
                legsUnlinked);
}

int
runPerLayer(const Workload &workload, const Args &args)
{
    // Shipping and traced segments alternate on the same inputs.
    const DeploymentOptions options = benchOptions();
    const auto check = makeCheck(workload.kind, options);
    const int pairs = std::max(1, args.seconds * int(kSecond / kSegmentNs) / 2);
    Layers layers;
    Totals totals;
    for (int i = 0; i < pairs; ++i) {
        const uint64_t seed = args.seed * 1000 + uint64_t(i);
        const Segment shipping =
            runSegment(workload, options, *check, seed, false);
        layers.addShipping(shipping, *check);
        totals.add(shipping);
        const Segment traced =
            runSegment(workload, options, *check, seed, true);
        layers.addTraced(traced, collectSpans());
        totals.add(traced);
    }
    Report report;
    layers.report(report, workload);
    report.print(totals.correct, totals.attempted, totals.failed);
    return totals.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    for (const Workload &workload : workloads()) {
        if (workload.name == args.workload) {
            std::printf("# svcbench %s seed=%" PRIu64
                        " seconds=%d trace=%d\n",
                        workload.name, args.seed, args.seconds,
                        args.trace);
            return args.trace ? runPerLayer(workload, args)
                              : runEndToEnd(workload, args);
        }
    }
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
}
