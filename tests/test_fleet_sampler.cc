/**
 * @file
 * Tests for the fleet-level batched sampling engine (FleetSampler)
 * and the parallel learning split: exact equivalence with the legacy
 * per-service MonitorProbe path, lazy mid-slot detach, jittered chain
 * offsets, and bit-identical learnAll() at any thread count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "experiments/runner.hh"
#include "experiments/sampler.hh"
#include "experiments/scenario.hh"
#include "services/keyvalue_service.hh"
#include "sim/cluster.hh"
#include "sim/simulation.hh"

namespace dejavu {
namespace {

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _before = logLevel();
        setLogLevel(LogLevel::Silent);
    }
    void TearDown() override { setLogLevel(_before); }

  private:
    LogLevel _before = LogLevel::Info;
};

using SamplerTest = QuietLogs;

/** One observed sample: when it fired and for which trace hour. */
struct Observed
{
    SimTime at;
    int hour;

    bool operator==(const Observed &o) const
    { return at == o.at && hour == o.hour; }
};

/** A minimal per-service stack driven by a real trace. */
struct ServiceHarness
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<KeyValueService> service;
    std::unique_ptr<TraceDriver> driver;

    ServiceHarness(Simulation &sim, const LoadTrace &trace,
                   std::uint64_t seed, int hours,
                   SimTime startOffset = 0)
    {
        cluster = std::make_unique<Cluster>(sim.queue(),
                                            Cluster::Config{});
        service = std::make_unique<KeyValueService>(
            sim.queue(), *cluster, Rng(seed));
        driver = std::make_unique<TraceDriver>(
            sim, *service, trace,
            TraceDriver::Config{hours, 20000.0, startOffset});
    }
};

/** Record every sample a feed delivers. */
std::vector<Observed> *
observe(Simulation &sim, SampleFeed &feed)
{
    auto *seen = new std::vector<Observed>;
    feed.addListener([&sim, seen](int hour, const Service::PerfSample &) {
        seen->push_back({sim.queue().now(), hour});
    });
    return seen;
}

TEST_F(SamplerTest, BatchedMatchesLegacyProbeExactly)
{
    // The equivalence claim at unit scale: the same two services under
    // the same trace deliver the identical (time, hour) sample
    // sequence whether sampled by one FleetSampler or by dedicated
    // MonitorProbe actors.
    const LoadTrace trace = scenarioTrace("messenger", 1, 42);
    const MonitorProbe::Config cadence{minutes(1), seconds(30)};

    Simulation batchedSim;
    ServiceHarness ba(batchedSim, trace, 7, 2);
    ServiceHarness bb(batchedSim, trace, 9, 2);
    FleetSampler sampler(batchedSim);
    sampler.reserveServices(2);
    auto &feedA = sampler.registerService(*ba.service, *ba.driver,
                                          cadence);
    auto &feedB = sampler.registerService(*bb.service, *bb.driver,
                                          cadence);
    std::unique_ptr<std::vector<Observed>> batchedA(
        observe(batchedSim, feedA));
    std::unique_ptr<std::vector<Observed>> batchedB(
        observe(batchedSim, feedB));
    batchedSim.runUntil(hours(3));

    Simulation legacySim;
    ServiceHarness la(legacySim, trace, 7, 2);
    ServiceHarness lb(legacySim, trace, 9, 2);
    MonitorProbe probeA(legacySim, *la.service, *la.driver, cadence);
    MonitorProbe probeB(legacySim, *lb.service, *lb.driver, cadence);
    std::unique_ptr<std::vector<Observed>> legacyA(
        observe(legacySim, probeA));
    std::unique_ptr<std::vector<Observed>> legacyB(
        observe(legacySim, probeB));
    legacySim.runUntil(hours(3));

    ASSERT_FALSE(batchedA->empty());
    EXPECT_EQ(*batchedA, *legacyA);
    EXPECT_EQ(*batchedB, *legacyB);
    EXPECT_EQ(feedA.samplesTaken(), probeA.samplesTaken());
    EXPECT_EQ(sampler.samplesTaken(),
              probeA.samplesTaken() + probeB.samplesTaken());
    EXPECT_EQ(sampler.services(), 2u);
    EXPECT_EQ(sampler.liveServices(), 2u);
}

TEST_F(SamplerTest, DetachMidSlotIsLazyAndLocal)
{
    // Member A detaches at t=10s, *after* its first chain tick was
    // already bucketed for t=30s: the drain must skip the stale index
    // without disturbing B, and A must never sample again.
    const LoadTrace trace = scenarioTrace("messenger", 1, 42);
    const MonitorProbe::Config cadence{minutes(1), seconds(30)};

    Simulation sim;
    ServiceHarness a(sim, trace, 7, 2);
    ServiceHarness b(sim, trace, 9, 2);
    FleetSampler sampler(sim);
    auto &feedA = sampler.registerService(*a.service, *a.driver,
                                          cadence);
    auto &feedB = sampler.registerService(*b.service, *b.driver,
                                          cadence);

    sim.queue().schedule(seconds(10), [&] { feedA.detach(); });
    // B detaches mid-run, between two of its own ticks; its count
    // must freeze at whatever it was at that instant.
    std::uint64_t samplesAtDetach = 0;
    sim.queue().schedule(minutes(30) + seconds(10), [&] {
        samplesAtDetach = feedB.samplesTaken();
        feedB.detach();
    });
    sim.runUntil(hours(2));

    EXPECT_EQ(feedA.samplesTaken(), 0u);
    EXPECT_GT(samplesAtDetach, 0u);
    EXPECT_EQ(feedB.samplesTaken(), samplesAtDetach);
    EXPECT_EQ(sampler.samplesTaken(), feedB.samplesTaken());
    EXPECT_EQ(sampler.services(), 2u);
    EXPECT_EQ(sampler.liveServices(), 0u);
    // Detaching twice is a no-op.
    feedA.detach();
    EXPECT_EQ(sampler.liveServices(), 0u);
}

TEST_F(SamplerTest, JitteredOffsetsKeepFullSamplingDensity)
{
    // A member whose driver fires at hour boundaries plus an offset
    // must sample on its own shifted timeline with undiminished
    // density: same count as an unjittered twin, every instant
    // shifted by exactly the offset.
    const LoadTrace trace = scenarioTrace("messenger", 1, 42);
    const MonitorProbe::Config cadence{minutes(1), seconds(30)};
    const SimTime offset = minutes(7) + seconds(11);

    Simulation sim;
    ServiceHarness plain(sim, trace, 7, 2);
    ServiceHarness jittered(sim, trace, 7, 2, offset);
    FleetSampler sampler(sim);
    auto &plainFeed = sampler.registerService(
        *plain.service, *plain.driver, cadence);
    auto &jitteredFeed = sampler.registerService(
        *jittered.service, *jittered.driver, cadence);
    std::unique_ptr<std::vector<Observed>> plainSeen(
        observe(sim, plainFeed));
    std::unique_ptr<std::vector<Observed>> jitteredSeen(
        observe(sim, jitteredFeed));
    sim.runUntil(hours(3));

    ASSERT_FALSE(plainSeen->empty());
    ASSERT_EQ(jitteredSeen->size(), plainSeen->size());
    for (std::size_t i = 0; i < plainSeen->size(); ++i) {
        EXPECT_EQ((*jitteredSeen)[i].at,
                  (*plainSeen)[i].at + offset);
        EXPECT_EQ((*jitteredSeen)[i].hour, (*plainSeen)[i].hour);
    }
}

using SamplerIntegration = QuietLogs;

TEST_F(SamplerIntegration, ParallelLearningBitIdentical)
{
    // learnAll(threads) must be bit-identical at any thread count,
    // including the hardest composition: a shared repository (whose
    // probe/tuner/store half is order-sensitive). The member-local prepares run on the pool; the shared
    // half replays sequentially in member order.
    auto digestFor = [&](int threads) {
        ScenarioOptions opt;
        opt.seed = 42;
        opt.days = 2;
        auto stack = makeMixedFleet(6, opt, SlotPolicy::Fifo, 2,
                                    RepositorySharing::Shared);
        stack->learnAll(threads);
        stack->experiment->run();
        std::vector<FleetCellResult> rows;
        rows.push_back({{"fleet-mixed-6-shared", "fifo", 42},
                        stack->experiment->summary()});
        return fleetSweepCsv(rows);
    };

    const std::string digest1 = digestFor(1);
    EXPECT_EQ(digest1, digestFor(4));
    EXPECT_EQ(digest1, digestFor(8));
}

} // namespace
} // namespace dejavu
