/**
 * @file
 * Unit tests for the HPC catalog, counter response model and Monitor
 * (the counters module).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "counters/counter_model.hh"
#include "counters/hpc_event.hh"
#include "counters/monitor.hh"
#include "counters/profiler.hh"
#include "services/keyvalue_service.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"

namespace dejavu {
namespace {

TEST(HpcCatalog, CountsMatch)
{
    EXPECT_EQ(allHpcEvents().size(),
              static_cast<std::size_t>(kNumHpcEvents));
    EXPECT_EQ(allHpcEventNames().size(),
              static_cast<std::size_t>(kNumHpcEvents));
    EXPECT_EQ(kNumHpcEvents, 54);
    EXPECT_EQ(kNumHardwareEvents, 48);
}

TEST(HpcCatalog, NameRoundTrip)
{
    // Each name leads back to its own event: the names are distinct
    // and listed in event order.
    const std::vector<std::string> names = allHpcEventNames();
    for (HpcEvent e : allHpcEvents()) {
        const auto at = std::find(names.begin(), names.end(),
                                  hpcEventName(e));
        ASSERT_NE(at, names.end());
        EXPECT_EQ(at - names.begin(), static_cast<int>(e));
    }
}

TEST(HpcCatalog, Table1EventsPresent)
{
    // The eight RUBiS-signature HPCs of Table 1.
    const auto &t1 = table1Events();
    ASSERT_EQ(t1.size(), 8u);
    EXPECT_EQ(hpcEventName(t1[0]), "busq_empty");
    EXPECT_EQ(hpcEventName(t1[1]), "cpu_clk_unhalted");
    EXPECT_EQ(hpcEventName(t1[2]), "l2_ads");
    EXPECT_EQ(hpcEventName(t1[3]), "l2_reject_busq");
    EXPECT_EQ(hpcEventName(t1[4]), "l2_st");
    EXPECT_EQ(hpcEventName(t1[5]), "load_block");
    EXPECT_EQ(hpcEventName(t1[6]), "store_block");
    EXPECT_EQ(hpcEventName(t1[7]), "page_walks");
}

TEST(HpcCatalog, XentopClassification)
{
    EXPECT_FALSE(isXentopMetric(HpcEvent::CpuClkUnhalted));
    EXPECT_TRUE(isXentopMetric(HpcEvent::XenCpuPercent));
    EXPECT_TRUE(isXentopMetric(HpcEvent::XenVbdWr));
}

TEST(CounterModel, InformativeEventsRespondToLoad)
{
    CounterModel model(ServiceKind::Rubis, Rng(3));
    const RequestMix mix = rubisBidding();
    const auto low = model.expectedRates(mix, 50.0, 0.1);
    const auto high = model.expectedRates(mix, 500.0, 0.8);
    for (HpcEvent e : table1Events()) {
        const auto i = static_cast<std::size_t>(e);
        EXPECT_NE(low[i], high[i]) << hpcEventName(e);
    }
    // busq_empty is the *inverse* signal: falls with load.
    EXPECT_GT(low[static_cast<std::size_t>(HpcEvent::BusqEmpty)],
              high[static_cast<std::size_t>(HpcEvent::BusqEmpty)]);
    // cpu cycles rise with load.
    EXPECT_LT(low[static_cast<std::size_t>(HpcEvent::CpuClkUnhalted)],
              high[static_cast<std::size_t>(HpcEvent::CpuClkUnhalted)]);
}

TEST(CounterModel, TypeAxisSeparatesMixes)
{
    // §3.3 / Fig. 4: the same intensity with a different read/write
    // ratio must shift the signature-forming counters.
    CounterModel model(ServiceKind::KeyValue, Rng(5));
    const auto writes =
        model.expectedRates(cassandraUpdateHeavy(), 300.0, 0.5);
    const auto reads =
        model.expectedRates(cassandraReadHeavy(), 300.0, 0.5);
    const auto l2st = static_cast<std::size_t>(HpcEvent::L2St);
    const auto loadBlock = static_cast<std::size_t>(HpcEvent::LoadBlock);
    EXPECT_GT(writes[l2st], reads[l2st]);
    EXPECT_LT(writes[loadBlock], reads[loadBlock]);
}

TEST(CounterModel, DecoysBarelyRespond)
{
    CounterModel model(ServiceKind::Rubis, Rng(7));
    const RequestMix mix = rubisBidding();
    const auto low = model.expectedRates(mix, 50.0, 0.1);
    const auto high = model.expectedRates(mix, 500.0, 0.8);
    for (HpcEvent e : {HpcEvent::SegRegRenames, HpcEvent::EspSynch,
                       HpcEvent::Bogus1, HpcEvent::Bogus3}) {
        const auto i = static_cast<std::size_t>(e);
        EXPECT_NEAR(low[i], high[i], std::abs(low[i]) * 0.05 + 1e-9)
            << hpcEventName(e);
    }
}

TEST(CounterModel, ServiceKindShapesResponses)
{
    const RequestMix mix = cassandraBalanced();
    CounterModel kv(ServiceKind::KeyValue, Rng(9));
    CounterModel web(ServiceKind::SpecWeb, Rng(9));
    const auto a = kv.expectedRates(mix, 300.0, 0.5);
    const auto b = web.expectedRates(mix, 300.0, 0.5);
    int different = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::abs(a[i] - b[i]) > 1e-9 * (std::abs(a[i]) + 1))
            ++different;
    EXPECT_GT(different, 10);
}

TEST(CounterModel, SampleCountsScaleWithDuration)
{
    CounterModel model(ServiceKind::KeyValue, Rng(11),
                       {.noise = 0.0, .decoyNoise = 0.0});
    const RequestMix mix = cassandraUpdateHeavy();
    const auto counts10 = model.sampleCounts(mix, 200.0, 0.5, 10.0);
    const auto counts20 = model.sampleCounts(mix, 200.0, 0.5, 20.0);
    for (std::size_t i = 0; i < counts10.size(); ++i) {
        if (static_cast<HpcEvent>(i) == HpcEvent::Bogus2)
            continue;  // white-noise channel is never deterministic
        EXPECT_NEAR(counts20[i], 2.0 * counts10[i],
                    std::abs(counts10[i]) * 1e-9 + 1e-9);
    }
}

TEST(CounterModel, XentopMetricsInRange)
{
    CounterModel model(ServiceKind::KeyValue, Rng(13));
    const auto rates =
        model.expectedRates(cassandraUpdateHeavy(), 400.0, 0.9);
    const double cpu =
        rates[static_cast<std::size_t>(HpcEvent::XenCpuPercent)];
    const double mem =
        rates[static_cast<std::size_t>(HpcEvent::XenMemPercent)];
    EXPECT_GE(cpu, 0.0);
    EXPECT_LE(cpu, 100.0);
    EXPECT_GE(mem, 0.0);
    EXPECT_LE(mem, 100.0);
}

class MonitorTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(17)};

    Monitor makeMonitor(Monitor::Config cfg = {})
    {
        return Monitor(service,
                       CounterModel(service.kind(), Rng(19)), cfg);
    }
};

TEST_F(MonitorTest, SampleWidthMatchesCatalog)
{
    auto monitor = makeMonitor();
    service.setWorkload({cassandraUpdateHeavy(), 5000.0});
    const MetricSample s = monitor.collect();
    EXPECT_EQ(static_cast<int>(s.values.size()), Monitor::metricCount());
    EXPECT_GT(s.offeredRate, 0.0);
}

TEST_F(MonitorTest, NormalizationIsDurationInvariant)
{
    // §3.3: signatures normalized by sampling time generalize across
    // sampling durations. Compare 10 s and 60 s windows (zero noise).
    service.setWorkload({cassandraUpdateHeavy(), 5000.0});
    CounterModel::Config quiet;
    quiet.noise = 0.0;
    quiet.decoyNoise = 0.0;

    Monitor::Config short_cfg;
    short_cfg.sampleDuration = seconds(10);
    Monitor shortMon(service,
                     CounterModel(service.kind(), Rng(23), quiet),
                     short_cfg);
    Monitor::Config long_cfg;
    long_cfg.sampleDuration = seconds(60);
    Monitor longMon(service,
                    CounterModel(service.kind(), Rng(23), quiet),
                    long_cfg);

    const auto a = shortMon.collect();
    const auto b = longMon.collect();
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        if (static_cast<HpcEvent>(i) == HpcEvent::Bogus2)
            continue;
        EXPECT_NEAR(a.values[i], b.values[i],
                    std::abs(a.values[i]) * 1e-6 + 1e-9)
            << hpcEventName(static_cast<HpcEvent>(i));
    }
}

TEST_F(MonitorTest, MirrorFractionScalesProfilerLoad)
{
    service.setWorkload({cassandraUpdateHeavy(), 7000.0});
    Monitor::Config tiny;
    tiny.mirrorFraction = 0.05;
    auto small = makeMonitor(tiny);
    Monitor::Config big;
    big.mirrorFraction = 0.20;
    auto large = makeMonitor(big);
    EXPECT_NEAR(large.collect().offeredRate,
                4.0 * small.collect().offeredRate, 1e-6);
}

TEST_F(MonitorTest, ProfilerIsolatedMeasurementIgnoresInterference)
{
    // The profiling host runs in isolation: production interference
    // must not disturb the isolated latency estimate (§3.3).
    service.setWorkload({cassandraUpdateHeavy(), 7000.0});
    cluster.setActiveInstances(5);
    queue.runUntil(minutes(1));
    ProfilerHost profiler(service, makeMonitor(), Rng(29));
    const Workload w = service.workload();
    const ResourceAllocation alloc{5, InstanceType::Large};
    const double before = profiler.isolatedLatencyMs(w, alloc);
    for (int i = 0; i < cluster.poolSize(); ++i)
        cluster.vm(i).setInterference(0.2);
    const double after = profiler.isolatedLatencyMs(w, alloc);
    // Same up to measurement noise (2% each).
    EXPECT_NEAR(before, after, 0.15 * before);
}

} // namespace
} // namespace dejavu
