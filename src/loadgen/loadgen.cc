/**
 * @file
 * Implementation of the open- and closed-loop load generators.
 */

#include "loadgen/loadgen.h"

#include <atomic>
#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/threading.h"
#include "base/time_util.h"

namespace musuite {

namespace {

/** One phase's completion-side tallies. */
struct PhaseTally
{
    Histogram latency;
    uint64_t completed = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t degraded = 0;
};

/** Completion-side state shared with in-flight callbacks. */
struct OpenLoopState
{
    Mutex mutex{LockRank::loadgen, "loadgen"};
    std::vector<PhaseTally> phases GUARDED_BY(mutex);
    std::atomic<uint64_t> outstanding{0};
};

} // namespace

LoadResult
OpenLoopLoadGen::run(const AsyncIssue &issue)
{
    return runPhases(issue, {0}).front();
}

std::vector<LoadResult>
OpenLoopLoadGen::runPhases(const AsyncIssue &issue,
                           const std::vector<int64_t> &bounds)
{
    MUSUITE_CHECK(!bounds.empty() && bounds.front() == 0)
        << "phase bounds must start at 0";
    // Send times are fixed before the first request goes out, so a
    // slow service can never push later arrivals back.
    const std::vector<int64_t> schedule = loadgen::arrivalSchedule(
        options.shape, options.durationNs, options.seed);
    auto state = std::make_shared<OpenLoopState>();
    {
        MutexLock guard(state->mutex);
        state->phases.resize(bounds.size());
    }
    std::vector<uint64_t> issued(bounds.size(), 0);

    const int64_t start = nowNanos();
    size_t phase = 0;
    for (size_t seq = 0; seq < schedule.size(); ++seq) {
        const int64_t offset = schedule[seq];
        while (phase + 1 < bounds.size() && offset >= bounds[phase + 1])
            ++phase;
        // Latency is measured from the *scheduled* send time: if the
        // generator itself fell behind (service pushed back), the
        // wait counts against the service, not the generator.
        const int64_t scheduled_ns = start + offset;
        sleepUntilNanos(scheduled_ns);

        issued[phase]++;
        state->outstanding.fetch_add(1, std::memory_order_relaxed);
        issue(seq, [state, phase, scheduled_ns](RequestOutcome outcome) {
            const int64_t now = nowNanos();
            {
                MutexLock guard(state->mutex);
                PhaseTally &tally = state->phases[phase];
                if (outcome.ok) {
                    tally.latency.record(now - scheduled_ns);
                    tally.completed++;
                    if (outcome.degraded)
                        tally.degraded++;
                } else {
                    tally.errors++;
                    if (outcome.shed)
                        tally.shed++;
                }
            }
            state->outstanding.fetch_sub(1, std::memory_order_release);
        });
    }

    // Drain stragglers.
    const int64_t drain_deadline = nowNanos() + options.drainTimeoutNs;
    while (state->outstanding.load(std::memory_order_acquire) > 0 &&
           nowNanos() < drain_deadline) {
        sleepForNanos(100'000);
    }

    const int64_t elapsed = nowNanos() - start;
    std::vector<LoadResult> results(bounds.size());
    MutexLock guard(state->mutex);
    for (size_t i = 0; i < bounds.size(); ++i) {
        const PhaseTally &tally = state->phases[i];
        const int64_t to =
            i + 1 < bounds.size() ? bounds[i + 1] : options.durationNs;
        LoadResult &result = results[i];
        result.latency = tally.latency;
        result.completed = tally.completed;
        result.errors = tally.errors;
        result.shed = tally.shed;
        result.degraded = tally.degraded;
        result.issued = issued[i];
        result.offeredQps = options.shape.qpsAt((bounds[i] + to) / 2);
        result.elapsedNs =
            (i + 1 < bounds.size() ? bounds[i + 1] : elapsed) - bounds[i];
        result.achievedQps =
            result.elapsedNs > 0
                ? double(result.completed) * 1e9 / double(result.elapsedNs)
                : 0.0;
    }
    return results;
}

LoadResult
ClosedLoopLoadGen::run(const SyncIssue &issue)
{
    struct WorkerState
    {
        Histogram latency;
        uint64_t completed = 0;
        uint64_t errors = 0;
        uint64_t issued = 0;
    };
    std::vector<WorkerState> states(size_t(options.workers));
    std::atomic<uint64_t> next_seq{0};
    const int64_t start = nowNanos();
    const int64_t deadline = start + options.durationNs;

    {
        std::vector<ScopedThread> workers;
        for (int w = 0; w < options.workers; ++w) {
            workers.emplace_back(
                "loadgen-" + std::to_string(w), [&, w] {
                    setCurrentThreadRole(ThreadRole::loadgen);
                    WorkerState &mine = states[size_t(w)];
                    while (nowNanos() < deadline) {
                        const uint64_t seq = next_seq.fetch_add(1);
                        const int64_t t0 = nowNanos();
                        const bool ok = issue(seq);
                        mine.issued++;
                        if (ok) {
                            mine.latency.record(nowNanos() - t0);
                            mine.completed++;
                        } else {
                            mine.errors++;
                        }
                    }
                });
        }
    } // Joins all workers.

    LoadResult result;
    for (const WorkerState &state : states) {
        result.latency.merge(state.latency);
        result.completed += state.completed;
        result.errors += state.errors;
        result.issued += state.issued;
    }
    result.elapsedNs = nowNanos() - start;
    result.achievedQps =
        result.elapsedNs > 0
            ? double(result.completed) * 1e9 / double(result.elapsedNs)
            : 0.0;
    return result;
}

double
findSaturationThroughput(const ClosedLoopLoadGen::SyncIssue &issue,
                         int max_workers, int64_t per_step_ns,
                         double plateau_fraction)
{
    double best = 0.0;
    for (int workers = 1; workers <= max_workers; workers *= 2) {
        ClosedLoopLoadGen::Options options;
        options.workers = workers;
        options.durationNs = per_step_ns;
        ClosedLoopLoadGen generator(options);
        const LoadResult result = generator.run(issue);
        if (result.achievedQps <= best * (1.0 + plateau_fraction) &&
            best > 0.0) {
            return best;
        }
        best = std::max(best, result.achievedQps);
    }
    return best;
}

} // namespace musuite
