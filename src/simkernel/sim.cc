/**
 * @file
 * Implementation of the simkernel discrete-event simulator.
 */

#include "simkernel/sim.h"

#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "loadgen/scenario.h"
#include "simkernel/simclock.h"

namespace musuite {
namespace sim {

namespace {

inline int64_t
usToNs(double us)
{
    return int64_t(us * 1000.0);
}

/**
 * The modelled pipeline's historical engine API, now a façade over
 * SimClock: the one event loop shared with the murpc-on-sim binding
 * (sim_transport.h), so both paths exercise identical ordering rules.
 */
class Engine
{
  public:
    int64_t now() { return clock.nowNanos(); }

    void
    schedule(int64_t delay_ns, std::function<void()> fn)
    {
        MUSUITE_CHECK(delay_ns >= 0) << "scheduling into the past";
        clock.schedule(delay_ns, std::move(fn));
    }

    /** Run until the event queue drains. */
    void run() { clock.runUntilIdle(); }

  private:
    SimClock clock;
};

/** Shared mutable measurement state. */
struct Stats
{
    explicit Stats(SimResult &result) : result(result) {}

    void
    record(OsCategory category, int64_t ns)
    {
        result.osBreakdown[size_t(category)].record(ns);
    }

    SimResult &result;
};

/** Lognormal sampler targeting a given mean. */
class LognormalNs
{
  public:
    LognormalNs(double mean_us, double sigma)
        : mu(std::log(std::max(1.0, mean_us * 1000.0)) -
             sigma * sigma / 2.0),
          sigma(sigma)
    {}

    int64_t
    sample(Rng &rng) const
    {
        return int64_t(std::exp(mu + sigma * rng.nextGaussian()));
    }

  private:
    double mu;
    double sigma;
};

/**
 * The mid-tier host's cores: non-preemptive, FIFO runqueue, context
 * switch cost, and an idle (C-state / cold cache) penalty that grows
 * with how long the core slept — the low-load latency mechanism.
 */
class CoreSet
{
  public:
    CoreSet(Engine &engine, const MachineParams &machine, Stats &stats)
        : engine(engine), machine(machine), stats(stats)
    {
        for (uint32_t c = 0; c < machine.cores; ++c)
            idleSince.push_back(0);
    }

    /**
     * Request a core; cb(start_time) fires once the thread is on-CPU.
     * The caller must later call release().
     */
    void
    acquire(std::function<void(int64_t)> cb)
    {
        if (!idleSince.empty()) {
            const int64_t idle_ns = engine.now() - idleSince.back();
            idleSince.pop_back();
            const int64_t start = engine.now() +
                                  usToNs(machine.ctxSwitchUs) +
                                  idlePenalty(idle_ns);
            engine.schedule(start - engine.now(),
                            [cb = std::move(cb), start] { cb(start); });
            return;
        }
        runqueue.push_back(std::move(cb));
    }

    void
    release()
    {
        if (!runqueue.empty()) {
            auto cb = std::move(runqueue.front());
            runqueue.pop_front();
            const int64_t start =
                engine.now() + usToNs(machine.ctxSwitchUs);
            engine.schedule(start - engine.now(),
                            [cb = std::move(cb), start] { cb(start); });
            return;
        }
        idleSince.push_back(engine.now());
    }

  private:
    int64_t
    idlePenalty(int64_t idle_ns) const
    {
        const int64_t threshold = usToNs(machine.idleThresholdUs);
        if (idle_ns <= threshold)
            return 0;
        const int64_t saturation = usToNs(machine.idleSaturationUs);
        const double fraction =
            std::min(1.0, double(idle_ns - threshold) /
                              double(std::max<int64_t>(
                                  1, saturation - threshold)));
        return int64_t(fraction * usToNs(machine.idlePenaltyUs));
    }

    Engine &engine;
    const MachineParams &machine;
    Stats &stats;
    std::vector<int64_t> idleSince; //!< Free cores (LIFO keeps warm).
    std::deque<std::function<void(int64_t)>> runqueue;
};

/** One unit of work executed by a pool thread. */
struct Work
{
    /** Service time decided when the thread picks the item up. */
    std::function<int64_t()> serviceNs;
    /** Runs at completion time, before the thread looks for more. */
    std::function<void(int64_t end_ns)> onComplete;
};

/**
 * A blocking thread pool: the network poller, worker, and response
 * pools of Fig. 8. Threads block on a futex-guarded queue; producers
 * wake them. All the futex / context-switch / wakeup-latency / HITM
 * accounting of the simulation happens here.
 */
class Pool
{
  public:
    Pool(Engine &engine, CoreSet &cores, const MachineParams &machine,
         Stats &stats, uint32_t threads, bool counts_epoll,
         int actor_base)
        : engine(engine), cores(cores), machine(machine), stats(stats),
          countsEpoll(counts_epoll), actorBase(actor_base)
    {
        for (uint32_t t = 0; t < threads; ++t)
            idleThreads.push_back(IdleThread{0});
    }

    /**
     * Enqueue work from the given actor id (for lock-line HITM
     * accounting).
     */
    void
    push(Work work, int producer_actor)
    {
        touchLock(producer_actor);
        if (!idleThreads.empty()) {
            // Wake a parked thread: futex(WAKE) + SCHED softirq, then
            // runqueue wait (Active-Exe) before it runs the work.
            const IdleThread thread = idleThreads.back();
            idleThreads.pop_back();
            stats.result.syscalls.futex++;
            stats.result.contextSwitches++;
            // The futex word itself is a contended cache line: the
            // producer writes it while waiters spin/load it.
            stats.result.hitmEvents++;
            const int64_t sched_cost = usToNs(machine.schedSoftirqUs);
            stats.record(OsCategory::Sched, sched_cost);

            const int64_t runnable_at =
                engine.now() + usToNs(machine.futexWakePathUs) +
                sched_cost;
            stats.record(OsCategory::Block,
                         runnable_at - thread.blockedSince);
            if (countsEpoll)
                stats.result.syscalls.epollPwait++;

            engine.schedule(
                runnable_at - engine.now(),
                [this, runnable_at, work = std::move(work)]() mutable {
                    cores.acquire([this, runnable_at,
                                   work = std::move(work)](
                                      int64_t start) mutable {
                        stats.record(OsCategory::ActiveExe,
                                     start - runnable_at);
                        execute(std::move(work), start);
                    });
                });
            return;
        }
        pending.push_back(std::move(work));
    }

    size_t backlog() const { return pending.size(); }

  private:
    struct IdleThread
    {
        int64_t blockedSince;
    };

    /** Model the queue lock cache line. */
    void
    touchLock(int actor)
    {
        const int64_t now = engine.now();
        if (lastLockActor != actor &&
            now < lastLockRelease + usToNs(machine.lockHoldUs)) {
            stats.result.hitmEvents++;
        } else if (lastLockActor != actor && lastLockActor != -1) {
            // Uncontended transfer of a Modified line still shows up
            // as a HITM hit at the coherence level.
            stats.result.hitmEvents++;
        }
        lastLockActor = actor;
        lastLockRelease = now + usToNs(machine.lockHoldUs);
    }

    /** Run work on the current thread at `start`; thread holds a core. */
    void
    execute(Work work, int64_t start)
    {
        touchLock(actorBase); // Consumer grabs the queue lock word.
        const int64_t service = std::max<int64_t>(0, work.serviceNs());
        engine.schedule(
            start + service - engine.now(),
            [this, work = std::move(work), start, service]() mutable {
                work.onComplete(start + service);
                next();
            });
    }

    /** Thread finished an item: drain the queue or park. */
    void
    next()
    {
        touchLock(actorBase); // Consumer side touches the lock word.
        if (!pending.empty()) {
            Work work = std::move(pending.front());
            pending.pop_front();
            // Queue non-empty: no futex, no context switch, the
            // thread keeps its core (hot path at high load).
            execute(std::move(work), engine.now());
            return;
        }
        // Park: futex(WAIT) + voluntary context switch; the futex
        // word transfers to this thread's core in Modified state.
        stats.result.syscalls.futex++;
        stats.result.contextSwitches++;
        stats.result.hitmEvents++;
        idleThreads.push_back(IdleThread{engine.now()});
        cores.release();
    }

    Engine &engine;
    CoreSet &cores;
    const MachineParams &machine;
    Stats &stats;
    bool countsEpoll;
    int actorBase;

    std::vector<IdleThread> idleThreads;
    std::deque<Work> pending;
    int lastLockActor = -1;
    int64_t lastLockRelease = -1;
};

/** A leaf microserver: G/G/k service station on its own machine. */
class LeafStation
{
  public:
    LeafStation(Engine &engine, uint32_t servers,
                LognormalNs service_time)
        : engine(engine), servers(servers),
          serviceTime(service_time)
    {}

    void
    submit(Rng &rng, std::function<void(int64_t)> on_done)
    {
        if (busy < servers) {
            start(rng, std::move(on_done));
            return;
        }
        waiting.push_back(std::move(on_done));
    }

  private:
    void
    start(Rng &rng, std::function<void(int64_t)> on_done)
    {
        ++busy;
        const int64_t service = serviceTime.sample(rng);
        // mulint: allow(dangling-capture): rng is the driver-owned generator; it outlives engine.run(), which completes every timer
        engine.schedule(service, [this, &rng,
                                  on_done = std::move(on_done)] {
            on_done(engine.now());
            --busy;
            if (!waiting.empty()) {
                auto next = std::move(waiting.front());
                waiting.pop_front();
                start(rng, std::move(next));
            }
        });
    }

    Engine &engine;
    uint32_t servers;
    LognormalNs serviceTime;
    uint32_t busy = 0;
    std::deque<std::function<void(int64_t)>> waiting;
};

/** Per-query bookkeeping. */
struct QueryState
{
    int64_t sendTime = 0;      //!< Client's scheduled send.
    int64_t deliveredAt = 0;   //!< Socket delivery at the mid-tier.
    uint32_t remaining = 0;    //!< Outstanding leaf responses.
};

} // namespace

ServiceParams
hdsearchParams()
{
    ServiceParams params;
    params.midTierComputeUs = 18.0; // LSH lookup over L tables.
    // Per-leg leaf CPU calibrated to the measured ~11.5K QPS
    // saturation: 4 leaves x 9 physical cores / 780us = 11.5K.
    params.leafComputeUs = 780.0;
    params.leafComputeSigma = 0.45;
    params.mergeUs = 10.0;
    params.fanout = 4;
    params.leafServers = 4;
    params.leafCoresPerServer = 9; // 18 logical = 9 physical cores.
    return params;
}

ServiceParams
routerParams()
{
    ServiceParams params;
    params.midTierComputeUs = 4.0; // SpookyHash + route pick.
    // Per-op leaf CPU (gRPC wrapper + memcached) calibrated to the
    // measured ~12K QPS saturation: 16 leaves x 2 physical cores /
    // (2 avg legs x 1.3ms) = 12.3K.
    params.leafComputeUs = 1300.0;
    params.leafComputeSigma = 0.35;
    params.mergeUs = 1.5;
    params.fanout = 2;             // ~avg of get(1) / set(3 replicas).
    params.leafServers = 16;
    params.leafCoresPerServer = 2; // 4 logical = 2 physical cores.
    return params;
}

ServiceParams
setAlgebraParams()
{
    ServiceParams params;
    params.midTierComputeUs = 5.0; // Forwarding only.
    // Calibrated to ~16.5K QPS saturation: 9 cores / 545us.
    params.leafComputeUs = 545.0;  // Posting-list intersections.
    params.leafComputeSigma = 0.8; // Lopsided list sizes.
    params.mergeUs = 14.0;         // K-way union.
    params.fanout = 4;
    params.leafServers = 4;
    params.leafCoresPerServer = 9;
    return params;
}

ServiceParams
recommendParams()
{
    ServiceParams params;
    params.midTierComputeUs = 3.0; // Forwarding only.
    // Calibrated to ~13K QPS saturation: 9 cores / 690us.
    params.leafComputeUs = 690.0;  // User-kNN prediction.
    params.leafComputeSigma = 0.4;
    params.mergeUs = 2.0;          // Average of 4 doubles.
    params.fanout = 4;
    params.leafServers = 4;
    params.leafCoresPerServer = 9;
    return params;
}

SimResult
simulate(const MachineParams &machine, const ServiceParams &service,
         double qps, double duration_us, uint64_t seed)
{
    MUSUITE_CHECK(qps > 0) << "offered load must be positive";
    MUSUITE_CHECK(service.fanout >= 1 && service.leafServers >= 1)
        << "bad service shape";

    SimResult result;
    result.offeredQps = qps;

    Engine engine;
    Stats stats(result);
    Rng rng(seed);
    CoreSet cores(engine, machine, stats);

    // Actor id spaces for lock-line accounting.
    constexpr int pollerActor = 1000;
    constexpr int workerActor = 2000;
    constexpr int responderActor = 3000;
    constexpr int nicActor = 1;

    Pool pollers(engine, cores, machine, stats, machine.pollerThreads,
                 /*counts_epoll=*/true, pollerActor);
    Pool workers(engine, cores, machine, stats, machine.workerThreads,
                 /*counts_epoll=*/false, workerActor);
    Pool responders(engine, cores, machine, stats,
                    machine.responseThreads, /*counts_epoll=*/true,
                    responderActor);

    LognormalNs mid_compute(service.midTierComputeUs,
                            service.midTierComputeSigma);
    LognormalNs leaf_compute(service.leafComputeUs,
                             service.leafComputeSigma);
    std::vector<std::unique_ptr<LeafStation>> leaves;
    for (uint32_t l = 0; l < service.leafServers; ++l) {
        leaves.push_back(std::make_unique<LeafStation>(
            engine, service.leafCoresPerServer, leaf_compute));
    }

    const int64_t duration_ns = usToNs(duration_us);
    int64_t last_completion_ns = 0;

    // Periodic RCU softirqs for the duration of the window.
    const int64_t rcu_period = usToNs(machine.rcuPeriodUs);
    for (int64_t t = rcu_period; t < duration_ns; t += rcu_period) {
        engine.schedule(t, [&stats, &machine] {
            stats.record(OsCategory::Rcu, usToNs(machine.rcuCostUs));
        });
    }

    // The response path for one query, shared by its leaf legs.
    auto complete_query = [&](const std::shared_ptr<QueryState> &query,
                              int64_t end) {
        // Reply: NET_TX + wire back to the client.
        stats.record(OsCategory::NetTx, usToNs(machine.netTxSoftirqUs));
        result.syscalls.sendmsg++;
        stats.record(OsCategory::Net, end - query->deliveredAt);
        const int64_t client_at = end + usToNs(machine.netTxSoftirqUs) +
                                  usToNs(machine.wireDelayUs);
        result.latency.record(client_at - query->sendTime);
        result.completed++;
        last_completion_ns = std::max(last_completion_ns, client_at);
    };

    // One leaf response arriving back at the mid-tier NIC.
    auto leaf_response = [&](const std::shared_ptr<QueryState> &query,
                             int64_t arrival) {
        const int64_t hardirq = usToNs(machine.hardirqUs);
        const int64_t netrx = usToNs(machine.netRxSoftirqUs);
        stats.record(OsCategory::Hardirq, hardirq);
        stats.record(OsCategory::NetRx, netrx);
        result.syscalls.recvmsg++;
        // mulint: allow(dangling-capture): [&] binds driver locals that live until engine.run() returns, after all timers fire
        engine.schedule(
            arrival + hardirq + netrx - engine.now(), [&, query] {
                Work work;
                // Whether THIS leg was the one that counted the
                // query down to zero (and therefore merges).
                auto is_last = std::make_shared<bool>(false);
                work.serviceNs = [&, query, is_last]() -> int64_t {
                    // All but the last response thread merely stash
                    // the payload and count down; the last one merges.
                    MUSUITE_CHECK(query->remaining > 0)
                        << "over-completed query";
                    *is_last = (--query->remaining == 0);
                    if (*is_last)
                        return usToNs(0.5) + usToNs(service.mergeUs);
                    return usToNs(0.5);
                };
                work.onComplete = [&, query, is_last](int64_t end) {
                    if (*is_last)
                        complete_query(query, end);
                };
                responders.push(std::move(work), nicActor);
            });
    };

    // The worker stage: mid-tier compute then leaf fan-out.
    uint32_t next_leaf = 0;
    auto dispatch_to_worker =
        [&](const std::shared_ptr<QueryState> &query) {
            Work work;
            work.serviceNs = [&]() -> int64_t {
                return mid_compute.sample(rng) +
                       int64_t(service.fanout) *
                           usToNs(service.perLeafSendUs);
            };
            work.onComplete = [&, query](int64_t end) {
                query->remaining = service.fanout;
                for (uint32_t f = 0; f < service.fanout; ++f) {
                    stats.record(OsCategory::NetTx,
                                 usToNs(machine.netTxSoftirqUs));
                    result.syscalls.sendmsg++;
                    LeafStation &leaf =
                        *leaves[next_leaf++ % leaves.size()];
                    const int64_t wire = usToNs(machine.wireDelayUs);
                    // mulint: allow(dangling-capture): [&] binds driver locals that live until engine.run() returns, after all timers fire
                    engine.schedule(
                        end + wire - engine.now(), [&, query] {
                            leaf.submit(rng, [&, query](int64_t done) {
                                // mulint: allow(dangling-capture): [&] binds driver locals that live until engine.run() returns, after all timers fire
                                engine.schedule(
                                    usToNs(machine.wireDelayUs),
                                    [&, query, done] {
                                        leaf_response(
                                            query,
                                            done +
                                                usToNs(
                                                    machine
                                                        .wireDelayUs));
                                    });
                            });
                        });
                }
            };
            workers.push(std::move(work), pollerActor);
        };

    // The poller stage: parse + dispatch.
    auto client_arrival = [&](int64_t send_time) {
        result.issued++;
        auto query = std::make_shared<QueryState>();
        query->sendTime = send_time;
        const int64_t hardirq = usToNs(machine.hardirqUs);
        const int64_t netrx = usToNs(machine.netRxSoftirqUs);
        stats.record(OsCategory::Hardirq, hardirq);
        stats.record(OsCategory::NetRx, netrx);
        result.syscalls.recvmsg++;
        const int64_t delivered = engine.now() + hardirq + netrx;
        query->deliveredAt = delivered;
        // mulint: allow(dangling-capture): [&] binds driver locals that live until engine.run() returns, after all timers fire
        engine.schedule(delivered - engine.now(), [&, query] {
            Work work;
            work.serviceNs = [] { return usToNs(1.5); }; // Read+parse.
            work.onComplete = [&, query](int64_t) {
                dispatch_to_worker(query);
            };
            pollers.push(std::move(work), nicActor);
        });
    };

    // Poisson arrivals laid out a priori (open loop). The schedule
    // gets its own derived seed: drawing it from `rng`, which also
    // samples service times, would correlate the two.
    for (const int64_t send_time : loadgen::arrivalSchedule(
             loadgen::LoadShape::constant(qps), duration_ns,
             seed * 131 + 7)) {
        engine.schedule(send_time + usToNs(machine.wireDelayUs),
                        [&, send_time] { client_arrival(send_time); });
    }

    engine.run();

    // Under overload the tail of completions drains past the window;
    // sustained throughput is completions over the span they took.
    const int64_t span = std::max(duration_ns, last_completion_ns);
    result.achievedQps = double(result.completed) * 1e9 / double(span);
    return result;
}

} // namespace sim
} // namespace musuite
