/**
 * @file
 * Unit tests for the deterministic RNG (common/random.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.hh"

namespace dejavu {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextU32() == b.nextU32())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(13);
    std::set<int> seen;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntSingletonRange)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(-10, -5);
        EXPECT_GE(v, -10);
        EXPECT_LE(v, -5);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(23);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianParameterized)
{
    Rng rng(29);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(41);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate)
{
    Rng rng(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(rng.bernoulli(0.0));
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng parent(47);
    Rng a = parent.fork();
    Rng b = parent.fork();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextU32() == b.nextU32())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng p1(53), p2(53);
    Rng a = p1.fork();
    Rng b = p2.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(SplitMix, KnownProgression)
{
    std::uint64_t s1 = 0, s2 = 0;
    const std::uint64_t a = splitmix64(s1);
    const std::uint64_t b = splitmix64(s2);
    EXPECT_EQ(a, b);        // deterministic
    EXPECT_NE(splitmix64(s1), a);  // state advances
}

} // namespace
} // namespace dejavu
