/**
 * @file
 * Tests for time-varying load profiles: LoadShape rates (constant,
 * diurnal, flash crowd), the non-homogeneous Poisson arrival schedule
 * matching the shape, and OpenLoopLoadGen::runPhases per-phase
 * accounting and flash-crowd surge behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "base/time_util.h"
#include "loadgen/loadgen.h"
#include "loadgen/scenario.h"

namespace musuite {
namespace {

constexpr int64_t kMs = 1'000'000;

TEST(LoadShapeTest, ConstantRateEverywhere)
{
    const auto shape = loadgen::LoadShape::constant(42.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(0), 42.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(2'500 * kMs), 42.0);
    EXPECT_DOUBLE_EQ(shape.maxQps(), 42.0);
}

TEST(LoadShapeTest, DiurnalTroughAtStartCrestMidPeriod)
{
    const auto shape =
        loadgen::LoadShape::diurnal(100.0, 1000.0, 2'000 * kMs);
    EXPECT_NEAR(shape.qpsAt(0), 100.0, 1e-9);
    EXPECT_NEAR(shape.qpsAt(1'000 * kMs), 1000.0, 1e-9);
    EXPECT_NEAR(shape.qpsAt(500 * kMs), 550.0, 1e-6);
    EXPECT_NEAR(shape.qpsAt(2'000 * kMs), 100.0, 1e-9); // Next day.
    EXPECT_DOUBLE_EQ(shape.maxQps(), 1000.0);
}

TEST(LoadShapeTest, FlashCrowdHasSharpEdges)
{
    const auto shape = loadgen::LoadShape::flashCrowd(
        100.0, 500.0, 400 * kMs, 200 * kMs);
    EXPECT_DOUBLE_EQ(shape.qpsAt(400 * kMs - 1), 100.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(400 * kMs), 500.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(600 * kMs - 1), 500.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(600 * kMs), 100.0);
    EXPECT_DOUBLE_EQ(shape.maxQps(), 500.0);
}

TEST(ArrivalScheduleTest, SameInputsSameSchedule)
{
    const auto shape = loadgen::LoadShape::diurnal(200.0, 2000.0,
                                                   500 * kMs);
    const auto first = loadgen::arrivalSchedule(shape, 1'000 * kMs, 9);
    const auto second = loadgen::arrivalSchedule(shape, 1'000 * kMs, 9);
    ASSERT_GT(first.size(), 100u);
    EXPECT_EQ(first, second);
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
    EXPECT_GE(first.front(), 0);
    EXPECT_LT(first.back(), 1'000 * kMs);
    EXPECT_NE(first, loadgen::arrivalSchedule(shape, 1'000 * kMs, 10));
}

TEST(ArrivalScheduleTest, WindowCountsTrackTheShape)
{
    // 1000 QPS with a 5000 QPS crowd in [2s, 4s) over 6 s: each 1 s
    // window holds ~1000 or ~5000 arrivals (Poisson sd ~32 / ~71).
    const auto shape = loadgen::LoadShape::flashCrowd(
        1000.0, 5000.0, 2'000 * kMs, 2'000 * kMs);
    const auto arrivals =
        loadgen::arrivalSchedule(shape, 6'000 * kMs, 3);
    std::vector<size_t> per_second(6, 0);
    for (int64_t t : arrivals)
        per_second[size_t(t / (1'000 * kMs))]++;
    for (size_t s = 0; s < per_second.size(); ++s) {
        SCOPED_TRACE("second " + std::to_string(s));
        const double expected = shape.qpsAt(int64_t(s) * 1'000 * kMs);
        EXPECT_NEAR(double(per_second[s]), expected, 0.1 * expected);
    }
}

TEST(OpenLoopPhasesTest, PhaseRatesTrackTheShape)
{
    // 3 phases at 500 / 2500 / 500 QPS: the measured per-phase
    // arrival counts must track the shape.
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::flashCrowd(500.0, 2500.0,
                                                   300 * kMs, 300 * kMs);
    options.durationNs = 900 * kMs;
    options.seed = 5;
    OpenLoopLoadGen generator(options);

    const auto phases = generator.runPhases(
        [](uint64_t, std::function<void(RequestOutcome)> done) {
            done(true);
        },
        {0, 300 * kMs, 600 * kMs});

    ASSERT_EQ(phases.size(), 3u);
    // 0.3 s at 500 QPS ~ 150 arrivals; at 2500 ~ 750.
    EXPECT_NEAR(double(phases[0].issued), 150.0, 60.0);
    EXPECT_NEAR(double(phases[1].issued), 750.0, 140.0);
    EXPECT_NEAR(double(phases[2].issued), 150.0, 60.0);
    EXPECT_DOUBLE_EQ(phases[1].offeredQps, 2500.0);
    for (const LoadResult &phase : phases) {
        EXPECT_EQ(phase.completed, phase.issued);
        EXPECT_EQ(phase.errors, 0u);
    }
}

TEST(OpenLoopPhasesTest, SinglePhaseWithOneBound)
{
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(2000.0);
    options.durationNs = 300 * kMs;
    OpenLoopLoadGen generator(options);
    const auto phases = generator.runPhases(
        [](uint64_t, std::function<void(RequestOutcome)> done) {
            done(true);
        },
        {0});
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_NEAR(double(phases[0].issued), 600.0, 150.0);
    EXPECT_EQ(phases[0].completed, phases[0].issued);
}

TEST(OpenLoopPhasesTest, ErrorsCountedPerPhase)
{
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(1000.0);
    options.durationNs = 300 * kMs;
    OpenLoopLoadGen generator(options);
    std::atomic<uint64_t> n{0};
    const auto phases = generator.runPhases(
        [&](uint64_t, std::function<void(RequestOutcome)> done) {
            done(n.fetch_add(1) % 2 == 0);
        },
        {0, 150 * kMs});
    ASSERT_EQ(phases.size(), 2u);
    for (const LoadResult &phase : phases) {
        EXPECT_GT(phase.errors, 0u);
        EXPECT_NEAR(phase.errorRate(), 0.5, 0.15);
    }
}

TEST(OpenLoopPhasesTest, SpikeLatencyVisibleInPhaseHistograms)
{
    // A fake service whose latency rises with arrival density: the
    // crowd phase must show a worse p99 than the calm one.
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::flashCrowd(300.0, 2400.0,
                                                   200 * kMs, 200 * kMs);
    options.durationNs = 600 * kMs;
    options.seed = 9;
    OpenLoopLoadGen generator(options);

    std::atomic<int64_t> last_call_ns{0};
    const auto phases = generator.runPhases(
        [&](uint64_t, std::function<void(RequestOutcome)> done) {
            const int64_t now = nowNanos();
            const int64_t gap = now - last_call_ns.exchange(now);
            if (gap < 1'000'000)
                sleepForNanos(2'000'000); // Overloaded path.
            done(true);
        },
        {0, 200 * kMs, 400 * kMs});

    ASSERT_EQ(phases.size(), 3u);
    EXPECT_GT(phases[1].latency.valueAtQuantile(0.99),
              phases[0].latency.valueAtQuantile(0.99));
}

} // namespace
} // namespace musuite
