/**
 * @file
 * Unit tests for the DejaVu proxy and its answer cache (the proxy
 * module).
 */

#include <gtest/gtest.h>

#include "proxy/answer_cache.hh"
#include "proxy/proxy.hh"

namespace dejavu {
namespace {

TEST(AnswerCache, StoresMostRecentAnswer)
{
    AnswerCache cache(8);
    cache.put(1, 100);
    cache.put(1, 200);  // overwrite: "the most recent answer"
    const auto hit = cache.get(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 200u);
}

TEST(AnswerCache, MissOnUnknownKey)
{
    AnswerCache cache(8);
    EXPECT_FALSE(cache.get(42).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(AnswerCache, EvictsLeastRecentlyUsed)
{
    AnswerCache cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    (void)cache.get(1);   // 1 becomes most recent
    cache.put(3, 30);     // evicts 2
    EXPECT_TRUE(cache.get(1).has_value());
    EXPECT_FALSE(cache.get(2).has_value());
    EXPECT_TRUE(cache.get(3).has_value());
}

TEST(AnswerCache, HitRateAccounting)
{
    AnswerCache cache(4);
    cache.put(1, 10);
    (void)cache.get(1);
    (void)cache.get(2);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
    EXPECT_EQ(cache.stats().lookups, 2u);
}

TEST(AnswerCache, ClearEmptiesCache)
{
    AnswerCache cache(4);
    cache.put(1, 10);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get(1).has_value());
}

TEST(Proxy, SessionSamplingIsSticky)
{
    // A session is either always mirrored or never (§3.2.1).
    DejaVuProxy proxy(Rng(3), DejaVuProxy::Config());
    for (std::uint64_t s = 0; s < 50; ++s) {
        const bool first = proxy.sessionSampled(s);
        for (int rep = 0; rep < 5; ++rep)
            EXPECT_EQ(proxy.sessionSampled(s), first);
    }
}

TEST(Proxy, SampleFractionRoughlyRespected)
{
    DejaVuProxy::Config cfg;
    cfg.sessionSampleFraction = 0.10;
    DejaVuProxy proxy(Rng(5), cfg);
    int sampled = 0;
    const int n = 20000;
    for (std::uint64_t s = 0; s < n; ++s)
        if (proxy.sessionSampled(s))
            ++sampled;
    EXPECT_NEAR(static_cast<double>(sampled) / n, 0.10, 0.01);
}

TEST(Proxy, ProductionOverheadConstantWhenProfiling)
{
    DejaVuProxy proxy(Rng(7), DejaVuProxy::Config());
    const double overhead =
        proxy.onProductionRequest({1, 0xabc, false}, 7);
    EXPECT_DOUBLE_EQ(overhead, 3.0);  // §4.4's ~3 ms
}

TEST(Proxy, NoOverheadWhenProfilingDisabled)
{
    DejaVuProxy::Config cfg;
    cfg.profilingEnabled = false;
    DejaVuProxy proxy(Rng(9), cfg);
    EXPECT_DOUBLE_EQ(proxy.onProductionRequest({1, 0xabc, false}, 7),
                     0.0);
    EXPECT_EQ(proxy.stats().mirroredRequests, 0u);
}

TEST(Proxy, MirroredFractionTracksSampling)
{
    DejaVuProxy::Config cfg;
    cfg.sessionSampleFraction = 0.25;
    DejaVuProxy proxy(Rng(11), cfg);
    for (std::uint64_t s = 0; s < 4000; ++s)
        proxy.onProductionRequest({s, s * 31, false}, s);
    const DejaVuProxy::Stats &stats = proxy.stats();
    EXPECT_NEAR(static_cast<double>(stats.mirroredRequests)
                    / stats.productionRequests,
                0.25, 0.03);
}

TEST(Proxy, ProfilerRepliesResolveFromCache)
{
    DejaVuProxy::Config cfg;
    cfg.permutationMissRate = 0.0;
    DejaVuProxy proxy(Rng(13), cfg);
    proxy.onProductionRequest({1, 0x1111, false}, 99);
    EXPECT_TRUE(proxy.onProfilerRequest({1, 0x1111, false}));
    EXPECT_FALSE(proxy.onProfilerRequest({1, 0x9999, false}));
}

TEST(Proxy, PermutationMissesReduceHitRate)
{
    DejaVuProxy::Config cfg;
    cfg.permutationMissRate = 1.0;  // every request permuted
    DejaVuProxy proxy(Rng(15), cfg);
    proxy.onProductionRequest({1, 0x1111, false}, 99);
    EXPECT_FALSE(proxy.onProfilerRequest({1, 0x1111, false}));
}

TEST(Proxy, AnswerCacheLocalityUnderRealisticStream)
{
    // Production and profiler serve the same requests slightly
    // shifted in time: the cache must deliver a high hit rate
    // (§3.2.1: "the proxy's lookup table exhibits good locality").
    DejaVuProxy::Config cfg;
    cfg.permutationMissRate = 0.02;
    DejaVuProxy proxy(Rng(17), cfg);
    Rng rng(19);
    int hits = 0, lookups = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(
            rng.uniformInt(0, 500));  // zipf-ish small key space
        proxy.onProductionRequest({key % 100, key, false}, key * 7);
        if (i > 100) {  // profiler lags slightly behind
            ++lookups;
            if (proxy.onProfilerRequest({key % 100, key, false}))
                ++hits;
        }
    }
    EXPECT_GT(static_cast<double>(hits) / lookups, 0.9);
}

TEST(Proxy, NetworkOverheadMatchesPaperExample)
{
    // §4.4: 100 instances at a 1:10 inbound/outbound ratio => 0.1%.
    EXPECT_NEAR(DejaVuProxy::networkOverheadFraction(100, 0.1), 0.001,
                1e-12);
    EXPECT_NEAR(DejaVuProxy::networkOverheadFraction(10, 0.1), 0.01,
                1e-12);
}

TEST(ProxyDeath, BadConfig)
{
    DejaVuProxy::Config cfg;
    cfg.sessionSampleFraction = 0.0;
    EXPECT_DEATH(DejaVuProxy(Rng(1), cfg), "fraction");
}

} // namespace
} // namespace dejavu
