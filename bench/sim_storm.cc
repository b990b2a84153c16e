/**
 * @file
 * Virtual-time storm campaigns over the 3-deep sim request DAG.
 *
 * µSuite's services are one-mid-tier-deep; production request DAGs are
 * not. Both suites instantiate declarative 3-deep scenarios from the
 * graph scenario library (root -> 3 -> 9 -> 27 GraphNodes wired
 * through SimChannels with distribution-sampled link latencies) and
 * drive them with sim::driveRootLoad() — the load-shape library's
 * arrival schedule, one root call per arrival — entirely in virtual
 * time, so a multi-second storm over 40 servers costs milliseconds,
 * replays bit-for-bit under a fixed seed, and the smoke gates can be
 * exact: every arrival completes exactly once, no timer leaks, and
 * nothing completes after its root deadline (the budget decrements
 * hop by hop).
 *
 * dag suite: a steady phase, a diurnal cycle over a browned-out tree,
 * and a flash crowd at 2x the leaf tier's capacity over shedding
 * leaves. Reported per phase: offered/completed traffic, goodput,
 * degraded-answer rate (leaf brownouts surfacing three hops up), shed
 * rate with pacing hints, and the retry-amplification counter, which
 * must stay zero now that RESOURCE_EXHAUSTED hints survive multi-hop
 * propagation.
 *
 * chaos suite: the grayDag scenario (leaf fan-outs at 2/3 quorum)
 * under constant load through a warmup / fault / recovery timeline; a
 * ChaosCampaign installs one gray shape — zombie, slow-ramp, flap, or
 * asymmetric partial partition — on child 0 of every leaf group. Every
 * shape runs with outlier ejection armed and as an ejection-free
 * ablation baseline, reporting p99 and fault-window goodput, plus
 * time-to-detect (first ejection after injection) and time-to-recover
 * (goodput back to >= 95% of the warmup baseline, sustained).
 *
 * Flags: --seed=N --deadline-ms=N
 *        --duration-ms=N (dag: virtual time per phase)
 *        --qps=N --warmup-ms=N --fault-ms=N --recovery-ms=N (chaos)
 *        --smoke-dir=DIR runs shortened fixed workloads, gates them,
 *        and writes DIR/BENCH_dag.json and DIR/BENCH_chaos.json for
 *        tools/check.sh (exit 1 when a gate breaks).
 */

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "loadgen/scenario.h"
#include "services/graph/scenario.h"
#include "simkernel/chaos.h"
#include "simkernel/topology.h"
#include "stats/counters.h"
#include "stats/histogram.h"
#include "stats/recovery.h"

namespace musuite {
namespace bench {
namespace {

constexpr int64_t kMs = 1'000'000;

struct StormConfig
{
    uint64_t seed = 42;
    int64_t rootDeadlineNs = 50 * kMs;
    int64_t dagPhaseNs = 2000 * kMs; //!< dag: virtual time per phase.
    double chaosQps = 3000.0;
    int64_t warmupNs = 600 * kMs;   //!< chaos: clean baseline window.
    int64_t faultNs = 600 * kMs;    //!< chaos: fault active window.
    int64_t recoveryNs = 800 * kMs; //!< chaos: after the fault clears.
    /** Goodput must return to 95% of baseline and hold for this... */
    int64_t recoverySustainNs = 100 * kMs;
    /** ...within this after the fault clears (ejection runs). */
    int64_t recoveryBoundNs = 400 * kMs;
};

/** Root-visible outcomes, tallied the same way by both suites. */
struct RootTally
{
    uint32_t ok = 0;
    uint32_t degradedOk = 0;
    uint32_t exhausted = 0;       //!< RESOURCE_EXHAUSTED at the root.
    uint32_t exhaustedWithHint = 0;
    uint32_t late = 0;            //!< Past the root deadline: must be 0.
    Histogram latency;            //!< Of OK completions.

    void
    record(const sim::RootCompletion &done, int64_t deadline_ns)
    {
        const int64_t elapsed = done.doneNs - done.startNs;
        if (elapsed > deadline_ns)
            late++;
        if (done.status.isOk()) {
            ok++;
            latency.record(elapsed);
            if (done.reply.degraded)
                degradedOk++;
            return;
        }
        if (done.status.code() == StatusCode::ResourceExhausted) {
            exhausted++;
            if (done.status.retryAfterNs() > 0)
                exhaustedWithHint++;
        }
    }
};

/** One suite's run: its JSON phase rows and whether a gate broke. */
struct SuiteReport
{
    std::vector<std::string> rows;
    bool broken = false;
};

uint64_t
counterDelta(const CounterSnapshot &delta, const char *name)
{
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
}

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    std::string out(size_t(std::vsnprintf(nullptr, 0, fmt, args)), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, again);
    va_end(again);
    va_end(args);
    return out;
}

// ---- dag suite -----------------------------------------------------------

/** One dag phase: a named scenario under a named load shape. */
struct DagPhaseSpec
{
    const char *label;
    graph::GraphScenario scenario;
    loadgen::LoadShape load;
};

/** The leaf tier's aggregate service capacity expressed as root QPS
 *  (every root request visits each leaf once, so leaf saturation is
 *  per-leaf capacity, independent of the tier width). */
double
leafCapacityQps(const graph::GraphScenario &scenario)
{
    const graph::StageSpec &leaves = scenario.stages.back();
    return double(leaves.workers) * 1e9 / double(leaves.computeNs);
}

std::vector<DagPhaseSpec>
dagPhases(const StormConfig &config)
{
    // Steady: the unloaded full-tree baseline.
    const graph::GraphScenario steady = graph::steadyDag(config.seed);
    // Brownout under a diurnal cycle: one slow leaf per group, load
    // swinging between 20% and 80% of leaf capacity per virtual "day".
    const graph::GraphScenario brownout =
        graph::brownoutDag(config.seed + 1);
    // Retry storm: a flash crowd at 2x the (tiny) leaf capacity for
    // the middle half of the run.
    const graph::GraphScenario storm =
        graph::retryStormDag(config.seed + 2);
    const double brownout_capacity = leafCapacityQps(brownout);
    const double storm_capacity = leafCapacityQps(storm);
    return {
        {"steady_1x", steady,
         loadgen::LoadShape::constant(0.5 * leafCapacityQps(steady))},
        {"brownout_diurnal", brownout,
         loadgen::LoadShape::diurnal(0.2 * brownout_capacity,
                                     0.8 * brownout_capacity,
                                     config.dagPhaseNs)},
        {"retry_storm_2x", storm,
         loadgen::LoadShape::flashCrowd(
             0.5 * storm_capacity, 2.0 * storm_capacity,
             config.dagPhaseNs / 4, config.dagPhaseNs / 2)},
    };
}

/**
 * Gates: every arrival completes exactly once, nothing completes after
 * its root deadline, every root-visible shed carries a pacing hint,
 * every phase (the 2x storm included) keeps nonzero goodput, and zero
 * retries are amplified.
 */
SuiteReport
runDag(const StormConfig &config)
{
    std::printf("sim_storm dag: 3-deep DAG (1+3+9+27 nodes), root "
                "deadline=%.0fms, %.1fs virtual per phase, seed=%llu\n",
                double(config.rootDeadlineNs) * 1e-6,
                double(config.dagPhaseNs) * 1e-9,
                static_cast<unsigned long long>(config.seed));
    SuiteReport report;
    for (const DagPhaseSpec &spec : dagPhases(config)) {
        sim::SimClock clock;
        ScopedClock ambient(clock);
        const sim::Topology topo =
            sim::buildTopology(clock, spec.scenario);
        const CounterSnapshot before = globalCounters().snapshot();
        RootTally tally;
        const sim::RootLoadTotals totals = sim::driveRootLoad(
            clock, topo, spec.load, config.dagPhaseNs,
            config.rootDeadlineNs, spec.scenario.seed,
            [&](const sim::RootCompletion &done) {
                tally.record(done, config.rootDeadlineNs);
            });
        const CounterSnapshot delta =
            CounterSet::diff(before, globalCounters().snapshot());
        const uint64_t node_sheds = counterDelta(delta, "graph.node.shed");
        const uint64_t retries =
            counterDelta(delta, "rpc.retry.scheduled");
        const uint64_t amplified =
            counterDelta(delta, "rpc.call.retry_amplified");
        const DistributionSummary latency = tally.latency.summary();
        const double goodput_qps =
            double(tally.ok) * 1e9 / double(config.dagPhaseNs);
        const double degraded_rate =
            tally.ok > 0 ? double(tally.degradedOk) / double(tally.ok)
                         : 0.0;
        const double shed_rate =
            totals.offered > 0
                ? double(tally.exhausted) / double(totals.offered)
                : 0.0;

        std::printf("  %-18s offered=%6zu ok=%6u goodput=%7.0f qps "
                    "degraded=%5.1f%% shed=%5.1f%% late=%u\n",
                    spec.label, totals.offered, tally.ok, goodput_qps,
                    100.0 * degraded_rate, 100.0 * shed_rate,
                    tally.late);
        std::printf("                     ok-latency: %s\n",
                    latency.toString().c_str());
        std::printf("                     node_sheds=%llu retries=%llu "
                    "retry_amplified=%llu hints=%u/%u\n",
                    static_cast<unsigned long long>(node_sheds),
                    static_cast<unsigned long long>(retries),
                    static_cast<unsigned long long>(amplified),
                    tally.exhaustedWithHint, tally.exhausted);

        if (tally.ok == 0 || totals.lostCompletions != 0 ||
            tally.late != 0 || totals.leakedTimers != 0 ||
            amplified != 0 ||
            tally.exhaustedWithHint != tally.exhausted) {
            report.broken = true;
        }
        report.rows.push_back(format(
            "{\"phase\": \"%s\", \"offered\": %zu, \"ok\": %u, "
            "\"goodput_qps\": %.0f, \"degraded_rate\": %.4f, "
            "\"shed_rate\": %.4f, \"late_completions\": %u, "
            "\"lost_completions\": %zu, \"node_sheds\": %llu, "
            "\"retries_scheduled\": %llu, \"retry_amplified\": %llu, "
            "\"sheds_with_hint\": %u, \"ok_p50_ns\": %lld, "
            "\"ok_p99_ns\": %lld}",
            spec.label, totals.offered, tally.ok, goodput_qps,
            degraded_rate, shed_rate, tally.late, totals.lostCompletions,
            static_cast<unsigned long long>(node_sheds),
            static_cast<unsigned long long>(retries),
            static_cast<unsigned long long>(amplified),
            tally.exhaustedWithHint, static_cast<long long>(latency.p50),
            static_cast<long long>(latency.p99)));
    }
    return report;
}

// ---- chaos suite ---------------------------------------------------------

struct ChaosShape
{
    const char *label;
    sim::ChaosEvent::Kind kind;
    /** Shapes whose fault burns deadlines: ejection must win on p99. */
    bool gateP99 = false;
};

const ChaosShape kChaosShapes[] = {
    {"zombie", sim::ChaosEvent::Kind::Zombie, true},
    {"slow_ramp", sim::ChaosEvent::Kind::SlowRamp, true},
    {"flap", sim::ChaosEvent::Kind::Flap, false},
    {"partition", sim::ChaosEvent::Kind::PartialPartition, false},
};

/**
 * One shape under one arm; appends its JSON row to `report` and
 * returns the settled fault-window p99 for the paired-arm gate.
 */
int64_t
runChaosArm(const StormConfig &config, const ChaosShape &shape,
            bool ejection, SuiteReport &report)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    const graph::GraphScenario scenario =
        graph::grayDag(config.seed, ejection);
    sim::Topology topo = sim::buildTopology(clock, scenario);

    // One gray fault on child 0 of every leaf group, injected after
    // warmup and cleared one fault window later.
    sim::ChaosCampaign campaign(clock, topo);
    sim::ChaosEvent event;
    event.kind = shape.kind;
    event.tier = scenario.stages.size() - 1; // Links into the leaves.
    event.onlyChild = 0;
    event.injectAtNs = config.warmupNs;
    event.clearAtNs = config.warmupNs + config.faultNs;
    // Steep enough that the ramp crosses the 10ms leg deadline within
    // the first few dozen calls: the peer passes through the whole
    // gray regime (slow-but-successful, then deadline-burning) well
    // inside the fault window instead of straddling its end.
    event.rampPerCallNs = 500'000;
    campaign.arm({event});

    // Steady-fault-state window: the second half of the fault window,
    // past the detection transient (the first requests of any fault
    // necessarily burn deadlines before health evidence accumulates).
    // Ejection's p99 win over the ablation baseline must show here.
    const int64_t settled_from_ns = event.injectAtNs + config.faultNs / 2;
    const CounterSnapshot before = globalCounters().snapshot();
    RootTally tally;
    uint32_t fault_window_ok = 0; // Quorum-starvation guard: > 0.
    Histogram fault_latency;
    GoodputTracker goodput(10 * kMs);
    const sim::RootLoadTotals totals = sim::driveRootLoad(
        clock, topo, loadgen::LoadShape::constant(config.chaosQps),
        config.warmupNs + config.faultNs + config.recoveryNs,
        config.rootDeadlineNs, config.seed,
        [&](const sim::RootCompletion &done) {
            tally.record(done, config.rootDeadlineNs);
            const int64_t elapsed = done.doneNs - done.startNs;
            // "Good" = a clean answer in time: degraded (quorum-
            // carried) completions keep the request alive but don't
            // count as recovered goodput, so time-to-recover measures
            // the return of *whole* answers, including reintroduction
            // churn.
            goodput.record(done.doneNs,
                           done.status.isOk() && !done.reply.degraded &&
                               elapsed <= config.rootDeadlineNs);
            if (!done.status.isOk() || done.startNs >= event.clearAtNs)
                return;
            if (done.startNs >= event.injectAtNs)
                fault_window_ok++;
            if (done.startNs >= settled_from_ns)
                fault_latency.record(elapsed);
        });
    const DistributionSummary latency = tally.latency.summary();
    const DistributionSummary fault_summary = fault_latency.summary();

    // Baseline over the settled second half of warmup; recovery =
    // first sustained return to 95% of it after the fault clears.
    const double baseline_qps =
        goodput.goodputQps(config.warmupNs / 2, config.warmupNs);
    const int64_t recover_ns = goodput.recoveryTimeNs(
        event.clearAtNs, baseline_qps, 0.95, config.recoverySustainNs);

    // Detection: the first ejection anywhere in the tree after the
    // fault landed (firstEjectAtNs — later ejections are
    // reintroduction churn, not detection).
    int64_t detect_ns = -1;
    for (const auto &policy : topo.ejectionPolicies) {
        const int64_t ejected_at = policy->firstEjectAtNs();
        if (ejected_at < event.injectAtNs)
            continue;
        const int64_t detect = ejected_at - event.injectAtNs;
        if (detect_ns < 0 || detect < detect_ns)
            detect_ns = detect;
    }

    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    const uint64_t ejected = counterDelta(delta, "health.ejected");
    const uint64_t reinstated = counterDelta(delta, "health.reinstated");
    MUSUITE_CHECK(campaign.faultsInjected() == 1 &&
                  campaign.faultsCleared() == 1)
        << "chaos schedule did not execute";

    std::printf(
        "  %-10s %-8s ok=%6u/%zu faultOk=%5u detect=%7.1fms "
        "recover=%7.1fms p99=%7.2fms faultP99=%7.2fms ejected=%llu "
        "reinstated=%llu\n",
        shape.label, ejection ? "eject" : "baseline", tally.ok,
        totals.offered, fault_window_ok,
        detect_ns < 0 ? -1.0 : double(detect_ns) * 1e-6,
        recover_ns < 0 ? -1.0 : double(recover_ns) * 1e-6,
        double(latency.p99) * 1e-6, double(fault_summary.p99) * 1e-6,
        static_cast<unsigned long long>(ejected),
        static_cast<unsigned long long>(reinstated));

    if (tally.ok == 0 || totals.lostCompletions != 0 || tally.late != 0 ||
        totals.leakedTimers != 0 || fault_window_ok == 0) {
        report.broken = true;
    }
    if (ejection &&
        (ejected == 0 || detect_ns < 0 || detect_ns >= config.faultNs ||
         recover_ns < 0 || recover_ns > config.recoveryBoundNs)) {
        report.broken = true;
    }
    report.rows.push_back(format(
        "{\"phase\": \"%s\", \"ejection\": %s, "
        "\"offered\": %zu, \"ok\": %u, \"fault_window_ok\": %u, "
        "\"baseline_qps\": %.0f, \"time_to_detect_ns\": %lld, "
        "\"time_to_recover_ns\": %lld, \"ok_p50_ns\": %lld, "
        "\"ok_p99_ns\": %lld, \"fault_ok_p99_ns\": %lld, "
        "\"late_completions\": %u, "
        "\"lost_completions\": %zu, \"health_ejected\": %llu, "
        "\"health_reinstated\": %llu, \"health_probes\": %llu, "
        "\"outlier_skipped\": %llu}",
        shape.label, ejection ? "true" : "false", totals.offered,
        tally.ok, fault_window_ok, baseline_qps,
        static_cast<long long>(detect_ns),
        static_cast<long long>(recover_ns),
        static_cast<long long>(latency.p50),
        static_cast<long long>(latency.p99),
        static_cast<long long>(fault_summary.p99), tally.late,
        totals.lostCompletions, static_cast<unsigned long long>(ejected),
        static_cast<unsigned long long>(reinstated),
        static_cast<unsigned long long>(
            counterDelta(delta, "health.probe_sent")),
        static_cast<unsigned long long>(
            counterDelta(delta, "fanout.outlier_skipped"))));
    return fault_summary.p99;
}

/**
 * Gates: every arrival completes exactly once with no leaked timers
 * and nothing past the root deadline; the quorum survives every fault
 * (fault-window goodput > 0, with and without ejection); every
 * ejection run detects the fault and recovers to 95% of baseline
 * within the bound after it clears; and on the deadline-burning shapes
 * (zombie, slow-ramp) ejection beats the ablation baseline's p99 in
 * the settled fault window (the whole-run p99 of both arms is
 * dominated by the unavoidable detection transient).
 */
SuiteReport
runChaos(const StormConfig &config)
{
    std::printf("sim_storm chaos: grayDag (1+3+9+27 nodes, leaf quorum "
                "2/3), %.0f qps, warmup/fault/recovery = "
                "%.0f/%.0f/%.0fms virtual, seed=%llu\n",
                config.chaosQps, double(config.warmupNs) * 1e-6,
                double(config.faultNs) * 1e-6,
                double(config.recoveryNs) * 1e-6,
                static_cast<unsigned long long>(config.seed));
    SuiteReport report;
    for (const ChaosShape &shape : kChaosShapes) {
        const int64_t eject_p99 =
            runChaosArm(config, shape, true, report);
        const int64_t baseline_p99 =
            runChaosArm(config, shape, false, report);
        if (shape.gateP99 && eject_p99 >= baseline_p99)
            report.broken = true;
    }
    return report;
}

// ---- smoke ---------------------------------------------------------------

/** The shared {root_deadline_ns, seed, phases, broken} smoke file. */
bool
writeSmokeJson(const std::string &path, const StormConfig &config,
               const SuiteReport &report)
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "sim_storm: cannot open %s\n", path.c_str());
        return false;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"root_deadline_ns\": %lld,\n"
                 "  \"seed\": %llu,\n"
                 "  \"phases\": [\n",
                 static_cast<long long>(config.rootDeadlineNs),
                 static_cast<unsigned long long>(config.seed));
    for (size_t i = 0; i < report.rows.size(); ++i) {
        std::fprintf(out, "    %s%s\n", report.rows[i].c_str(),
                     i + 1 < report.rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"broken\": %s\n"
                 "}\n",
                 report.broken ? "true" : "false");
    std::fclose(out);
    std::printf("sim_storm smoke: %zu phases -> %s (%s)\n",
                report.rows.size(), path.c_str(),
                report.broken ? "BROKEN" : "ok");
    return true;
}

/** CI smoke: both suites over shortened windows, gated, archived. */
int
runSmoke(const std::string &dir, StormConfig config)
{
    config.dagPhaseNs = 500 * kMs;
    config.warmupNs = 300 * kMs;
    config.faultNs = 300 * kMs;
    config.recoveryNs = 400 * kMs;
    config.recoveryBoundNs = 250 * kMs;
    const SuiteReport dag = runDag(config);
    const SuiteReport chaos = runChaos(config);
    const bool written =
        writeSmokeJson(dir + "/BENCH_dag.json", config, dag) &&
        writeSmokeJson(dir + "/BENCH_chaos.json", config, chaos);
    return written && !dag.broken && !chaos.broken ? 0 : 1;
}

} // namespace
} // namespace bench
} // namespace musuite

int
main(int argc, char **argv)
{
    using namespace musuite;
    using namespace musuite::bench;

    Flags flags(argc, argv);
    StormConfig config;
    config.seed = uint64_t(flags.num("seed", 42));
    config.rootDeadlineNs = int64_t(flags.num("deadline-ms", 50)) * kMs;
    config.dagPhaseNs = int64_t(flags.num("duration-ms", 2000)) * kMs;
    config.chaosQps = flags.num("qps", 3000);
    config.warmupNs = int64_t(flags.num("warmup-ms", 600)) * kMs;
    config.faultNs = int64_t(flags.num("fault-ms", 600)) * kMs;
    config.recoveryNs = int64_t(flags.num("recovery-ms", 800)) * kMs;

    const std::string smoke_dir = flags.str("smoke-dir", "");
    if (!smoke_dir.empty())
        return runSmoke(smoke_dir, config);

    runDag(config);
    runChaos(config);
    return 0;
}
