/**
 * @file
 * Unit tests for streaming statistics (common/stats.hh).
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace dejavu {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stderror(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, ClearResets)
{
    RunningStats s;
    s.add(1.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
}

TEST(PercentileSampler, QuantilesOfKnownData)
{
    PercentileSampler p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-12);
    EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-12);
    EXPECT_NEAR(p.quantile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(p.quantile(0.95), 95.05, 0.01);
}

TEST(PercentileSampler, SingleSample)
{
    PercentileSampler p;
    p.add(7.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 7.0);
}

TEST(PercentileSampler, FractionAbove)
{
    PercentileSampler p;
    for (int i = 1; i <= 10; ++i)
        p.add(i);
    EXPECT_DOUBLE_EQ(p.fractionAbove(10.0), 0.0);
    EXPECT_DOUBLE_EQ(p.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.fractionAbove(5.0), 0.5);
    EXPECT_DOUBLE_EQ(p.fractionAtOrBelow(5.0), 0.5);
}

TEST(PercentileSampler, MeanAndCount)
{
    PercentileSampler p;
    p.add(2.0);
    p.add(4.0);
    EXPECT_EQ(p.count(), 2u);
    EXPECT_DOUBLE_EQ(p.mean(), 3.0);
}

TEST(PercentileSampler, InterleavedAddAndQuery)
{
    // Adding after querying must re-sort correctly.
    PercentileSampler p;
    p.add(10.0);
    p.add(20.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 20.0);
    p.add(5.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 20.0);
}

TEST(TimeWeightedValue, ConstantSignal)
{
    TimeWeightedValue v;
    v.set(0, 4.0);
    EXPECT_DOUBLE_EQ(v.average(hours(2)), 4.0);
}

TEST(TimeWeightedValue, StepSignal)
{
    TimeWeightedValue v;
    v.set(0, 2.0);
    v.set(hours(1), 6.0);
    // One hour at 2, one hour at 6 -> average 4.
    EXPECT_DOUBLE_EQ(v.average(hours(2)), 4.0);
}

TEST(TimeWeightedValue, IntegralSeconds)
{
    TimeWeightedValue v;
    v.set(0, 3.0);
    v.set(seconds(10), 0.0);
    EXPECT_DOUBLE_EQ(v.integralSeconds(seconds(10)), 30.0);
    EXPECT_DOUBLE_EQ(v.integralSeconds(seconds(20)), 30.0);
}

TEST(TimeWeightedValue, BeforeStart)
{
    TimeWeightedValue v;
    EXPECT_DOUBLE_EQ(v.average(0), 0.0);
    EXPECT_DOUBLE_EQ(v.integralSeconds(hours(1)), 0.0);
}

TEST(TimeWeightedValue, NonZeroStart)
{
    TimeWeightedValue v;
    v.set(hours(1), 10.0);
    v.set(hours(2), 0.0);
    EXPECT_DOUBLE_EQ(v.average(hours(3)), 5.0);
}

} // namespace
} // namespace dejavu
