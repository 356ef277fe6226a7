/**
 * @file
 * Unit tests for load traces and the synthetic trace library
 * (workload/trace.hh, workload/trace_library.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/trace.hh"
#include "workload/trace_library.hh"

namespace dejavu {
namespace {

TEST(LoadTrace, NormalizesToUnitPeak)
{
    LoadTrace t("t", {2.0, 4.0, 1.0});
    EXPECT_DOUBLE_EQ(
        *std::max_element(t.samples().begin(), t.samples().end()), 1.0);
    EXPECT_DOUBLE_EQ(t.at(0), 0.5);
    EXPECT_DOUBLE_EQ(t.at(1), 1.0);
    EXPECT_DOUBLE_EQ(t.at(2), 0.25);
}

TEST(LoadTrace, ClampsBeyondEnd)
{
    LoadTrace t("t", {1.0, 2.0});
    EXPECT_DOUBLE_EQ(t.at(99), 1.0);  // last sample
}

TEST(LoadTrace, AtTimePiecewiseConstant)
{
    LoadTrace t("t", {1.0, 2.0});
    EXPECT_DOUBLE_EQ(t.atTime(0), 0.5);
    EXPECT_DOUBLE_EQ(t.atTime(kHour - 1), 0.5);
    EXPECT_DOUBLE_EQ(t.atTime(kHour), 1.0);
    EXPECT_DOUBLE_EQ(t.atTime(-5), 0.5);  // clamped to start
}

TEST(LoadTrace, DayHourIndexing)
{
    std::vector<double> load(48, 0.5);
    load[25] = 1.0;  // day 1, hour 1
    LoadTrace t("t", load);
    EXPECT_DOUBLE_EQ(t.at(1, 1), 1.0);
    EXPECT_DOUBLE_EQ(t.at(0, 1), 0.5);
    EXPECT_EQ(t.daysCovered(), 2);
}

TEST(TraceLibrary, SevenDayTraces)
{
    EXPECT_EQ(makeMessengerTrace().hours(), 7u * 24);
    EXPECT_EQ(makeHotmailTrace().hours(), 7u * 24);
}

TEST(TraceLibrary, DiurnalShape)
{
    // Peak hours must carry much more load than night hours.
    for (const LoadTrace &t :
         {makeMessengerTrace(), makeHotmailTrace()}) {
        double night = 0.0, day = 0.0;
        for (int h = 1; h <= 4; ++h)
            night += t.at(0, h);
        for (int h = 12; h <= 15; ++h)
            day += t.at(0, h);
        EXPECT_GT(day, 2.0 * night) << t.name();
    }
}

TEST(TraceLibrary, WeekendDip)
{
    const LoadTrace t = makeMessengerTrace();
    // Compare weekday (day 1) vs weekend (day 5) midday loads.
    double weekday = 0.0, weekend = 0.0;
    for (int h = 11; h <= 14; ++h) {
        weekday += t.at(1, h);
        weekend += t.at(5, h);
    }
    EXPECT_LT(weekend, weekday);
}

TEST(TraceLibrary, DeterministicPerSeed)
{
    const LoadTrace a = makeMessengerTrace();
    const LoadTrace b = makeMessengerTrace();
    ASSERT_EQ(a.hours(), b.hours());
    for (std::size_t h = 0; h < a.hours(); ++h)
        EXPECT_DOUBLE_EQ(a.at(h), b.at(h));
}

TEST(TraceLibrary, SeedChangesJitter)
{
    TraceOptions o1, o2;
    o2.seed = 999;
    const LoadTrace a = makeMessengerTrace(o1);
    const LoadTrace b = makeMessengerTrace(o2);
    int different = 0;
    for (std::size_t h = 0; h < a.hours(); ++h)
        if (a.at(h) != b.at(h))
            ++different;
    EXPECT_GT(different, 100);
}

TEST(TraceLibrary, HotmailDayFourAnomalyIsGlobalPeak)
{
    const LoadTrace t = makeHotmailTrace();
    // The day-4 flash crowd (hours 21-22 of 0-based day 3) must be
    // the trace's global maximum and exceed everything day 1 offers.
    const double anomaly = t.at(3, 21);
    EXPECT_DOUBLE_EQ(anomaly, 1.0);
    double dayOneMax = 0.0;
    for (int h = 0; h < 24; ++h)
        dayOneMax = std::max(dayOneMax, t.at(0, h));
    EXPECT_LT(dayOneMax, 0.95 * anomaly);
}

TEST(TraceLibrary, SineWavePeriodicity)
{
    const LoadTrace t = makeSineTrace(48, 12.0, 0.2, 7);
    // Values one period apart are near-identical (up to 1% jitter).
    for (int h = 0; h < 24; ++h)
        EXPECT_NEAR(t.at(static_cast<std::size_t>(h)),
                    t.at(static_cast<std::size_t>(h + 12)), 0.08);
}

TEST(TraceLibrary, SineWaveRange)
{
    const LoadTrace t = makeSineTrace(100, 10.0, 0.3, 7);
    for (std::size_t h = 0; h < t.hours(); ++h) {
        EXPECT_GE(t.at(h), 0.2);
        EXPECT_LE(t.at(h), 1.0);
    }
}

TEST(TraceLibraryDeath, BadArguments)
{
    EXPECT_DEATH(makeSineTrace(0, 10.0), "at least one hour");
    EXPECT_DEATH(makeSineTrace(10, -1.0), "period");
    TraceOptions o;
    o.numDays = 0;
    EXPECT_DEATH(makeMessengerTrace(o), "at least one day");
}

} // namespace
} // namespace dejavu
