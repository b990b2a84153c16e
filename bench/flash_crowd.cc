/**
 * @file
 * Flash-crowd / diurnal-load experiment (motivated by paper §VI-B:
 * OLDI services face drastic diurnal load changes, flash crowds after
 * news events, and launch surges; "supporting wide-ranging loads aids
 * rapid OLDI service scale-up").
 *
 * Drives a real deployment through one flash-crowd LoadShape —
 * baseline → Nx surge → recovery — and reports the per-phase latency
 * distributions (requests bucketed by scheduled send time), showing
 * how the blocking/dispatch mid-tier absorbs (or queues under) a
 * surge and how quickly tails recover.
 *
 * Flags: --service=router|hdsearch|setalgebra|recommend
 *        --baseline=QPS --spike-factor=N --phase-ms=N
 */

#include <iostream>

#include "bench_common.h"
#include "loadgen/loadgen.h"
#include "rpc/client.h"
#include "stats/table.h"

using namespace musuite;

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv);
    printEnvironmentBanner(std::cout);
    printBanner(std::cout,
                "Flash crowd: latency through a load surge (§VI-B "
                "motivation)");

    const ServiceKind kind =
        bench::serviceFlag(flags, ServiceKind::Router);

    auto deployment =
        ServiceDeployment::create(kind, bench::realModeOptions(flags));
    rpc::RpcClient client(deployment->midTierPort());
    Rng request_rng(404);

    const double baseline = flags.num("baseline", 300);
    const double factor = flags.num("spike-factor", 6);
    const int64_t phase_ns =
        int64_t(flags.num("phase-ms", 800)) * 1'000'000;

    // One schedule across all three phases, so the crowd's backlog
    // carries into (and is charged to) the recovery phase.
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::flashCrowd(
        baseline, baseline * factor, phase_ns, phase_ns);
    options.durationNs = 3 * phase_ns;
    options.seed = 7;
    OpenLoopLoadGen generator(options);
    const char *const phase_names[] = {"baseline", "flash-crowd",
                                       "recovery"};

    const uint32_t method = deployment->frontEndMethod();
    const std::vector<LoadResult> phases = generator.runPhases(
        [&](uint64_t, std::function<void(RequestOutcome)> done) {
            client.call(method,
                        deployment->sampleRequestBody(request_rng),
                        [&, done = std::move(done)](
                            const Status &status, std::string_view p) {
                            done(status.isOk() &&
                                 deployment->validateResponse(p));
                        });
        },
        {0, phase_ns, 2 * phase_ns});

    std::cout << "\n" << serviceName(kind) << ": " << baseline
              << " QPS baseline, " << factor << "x surge\n";
    Table table({"phase", "offered_qps", "completed", "errors", "p50",
                 "p99", "max"});
    for (size_t i = 0; i < phases.size(); ++i) {
        const LoadResult &phase = phases[i];
        table.row()
            .cell(phase_names[i])
            .cell(phase.offeredQps, 0)
            .cell(phase.completed)
            .cell(phase.errors)
            .nanos(phase.latency.valueAtQuantile(0.5))
            .nanos(phase.latency.valueAtQuantile(0.99))
            .nanos(phase.latency.maxValue());
    }
    table.print(std::cout);

    std::cout << "\nReading: the surge phase inflates tails (queueing "
                 "behind the dispatch queue and leaf CPUs); recovery "
                 "tails fall back toward baseline once the backlog "
                 "drains — the wide-ranging-load behaviour µSuite is "
                 "built to study.\n";
    return 0;
}
