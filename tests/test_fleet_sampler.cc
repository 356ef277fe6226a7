/**
 * @file
 * Tests for the batched sampling engine every run samples through
 * (FleetSampler) and the parallel learning split: a pinned sample
 * schedule, jittered chain offsets, bit-identical learnAll() at any
 * thread count, and drains split across workers that compute the
 * same bytes as one worker.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/rightscale.hh"
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

/** Record every sample member @p index of @p sampler delivers. */
std::vector<Observed> *
observe(Simulation &sim, FleetSampler &sampler, std::size_t index)
{
    auto *seen = new std::vector<Observed>;
    sampler.addListener(index, [&sim, seen](int hour,
                                            const Service::PerfSample &) {
        seen->push_back({sim.queue().now(), hour});
    });
    return seen;
}

TEST_F(SamplerTest, ScheduleIsPinned)
{
    // Two services under one trace, 2 hours driven: every (time,
    // hour) sample of A, then of B, folded with 64-bit FNV-1a. Any
    // change to when a run samples moves the fold.
    const LoadTrace trace = scenarioTrace("messenger", 1, 42);
    const FleetSampler::Cadence cadence{minutes(1), seconds(30)};

    Simulation sim;
    ServiceHarness a(sim, trace, 7, 2);
    ServiceHarness b(sim, trace, 9, 2);
    FleetSampler sampler(sim);
    sampler.reserveServices(2);
    const std::size_t indexA =
        sampler.registerService(*a.service, *a.driver, cadence);
    const std::size_t indexB =
        sampler.registerService(*b.service, *b.driver, cadence);
    std::unique_ptr<std::vector<Observed>> seenA(
        observe(sim, sampler, indexA));
    std::unique_ptr<std::vector<Observed>> seenB(
        observe(sim, sampler, indexB));
    sim.runUntil(hours(3));

    std::uint64_t fold = 0xcbf29ce484222325ULL;
    for (const auto *seen : {seenA.get(), seenB.get()}) {
        for (const Observed &o : *seen) {
            fold = (fold ^ static_cast<std::uint64_t>(o.at))
                * 0x100000001b3ULL;
            fold = (fold ^ static_cast<std::uint64_t>(o.hour))
                * 0x100000001b3ULL;
        }
    }
    EXPECT_EQ(seenA->size(), 120u);
    EXPECT_EQ(seenB->size(), 120u);
    EXPECT_EQ(fold, 0x565794c64e982c85ULL);
    EXPECT_EQ(sampler.samplesTaken(indexA), 120u);
    EXPECT_EQ(sampler.samplesTaken(), 240u);
    EXPECT_EQ(sampler.services(), 2u);
}

TEST_F(SamplerTest, JitteredOffsetsKeepFullSamplingDensity)
{
    // A member whose driver fires at hour boundaries plus an offset
    // must sample on its own shifted timeline with undiminished
    // density: same count as an unjittered twin, every instant
    // shifted by exactly the offset.
    const LoadTrace trace = scenarioTrace("messenger", 1, 42);
    const FleetSampler::Cadence cadence{minutes(1), seconds(30)};
    const SimTime offset = minutes(7) + seconds(11);

    Simulation sim;
    ServiceHarness plain(sim, trace, 7, 2);
    ServiceHarness jittered(sim, trace, 7, 2, offset);
    FleetSampler sampler(sim);
    const std::size_t plainIndex = sampler.registerService(
        *plain.service, *plain.driver, cadence);
    const std::size_t jitteredIndex = sampler.registerService(
        *jittered.service, *jittered.driver, cadence);
    std::unique_ptr<std::vector<Observed>> plainSeen(
        observe(sim, sampler, plainIndex));
    std::unique_ptr<std::vector<Observed>> jitteredSeen(
        observe(sim, sampler, jitteredIndex));
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

// --------------------------------------------------------------------
// Split drains: every member observes on its share's worker, acts run
// in due order on the run thread, and the outcome is the same bytes
// at any worker count.
// --------------------------------------------------------------------

/** Fold @p value's bits into the 64-bit FNV-1a @p fold. */
void
foldBits(std::uint64_t &fold, double value)
{
    fold = (fold ^ bitsOf(value)) * 0x100000001b3ULL;
}

/** Everything a run computed, down to the bits: the sweep row, the
 *  event count and every member's aggregates and series. */
std::string
runDigest(FleetStack &stack)
{
    const auto results = stack.experiment->run();
    std::vector<FleetCellResult> rows{
        {SweepCell{"drain", "policy", 42},
         stack.experiment->summary()}};
    std::string digest = fleetSweepCsv(rows);
    char line[256];
    std::snprintf(line, sizeof line, "events %llu\n",
                  static_cast<unsigned long long>(
                      stack.sim->queue().executed()));
    digest += line;
    for (const auto &member : results) {
        const ExperimentResult &r = member.result;
        std::uint64_t series = 0xcbf29ce484222325ULL;
        for (const auto *points :
             {&r.latencyMs, &r.qosPercent, &r.instances,
              &r.computeUnits, &r.loadFraction})
            for (const SeriesPoint &p : *points) {
                foldBits(series, p.timeHours);
                foldBits(series, p.value);
            }
        std::snprintf(line, sizeof line,
                      "%s %a %a %a %a %a %a %a %d %zu %016llx\n",
                      member.name.c_str(), r.sloViolationFraction,
                      r.meanLatencyMs, r.meanQosPercent, r.costDollars,
                      r.energyKwh, r.maxEnergyKwh, r.adaptationSec.mean(),
                      member.adaptations, r.latencyMs.size(),
                      static_cast<unsigned long long>(series));
        digest += line;
    }
    return digest;
}

class DrainSplit : public QuietLogs
{
  protected:
    /** Digests of @p build's fleet learned and run at 1, 4 and 8
     *  workers; the 4-worker run's drains must have split. */
    template <typename Build>
    void expectSameBytesAtAnyWorkerCount(Build build)
    {
        std::string digests[3];
        const int workers[3] = {1, 4, 8};
        for (int i = 0; i < 3; ++i) {
            std::unique_ptr<FleetStack> stack = build();
            stack->learnAll(workers[i]);
            stack->startInjectors();
            digests[i] = runDigest(*stack);
            const int ran = stack->experiment->sampler()
                                ->peakDrainWorkers();
            if (workers[i] == 1) {
                EXPECT_EQ(ran, 1);
            } else if (workers[i] == 4
                       && std::thread::hardware_concurrency() >= 2) {
                EXPECT_GT(ran, 1)
                    << "no drain split across the pool's workers";
            }
        }
        EXPECT_EQ(digests[0], digests[1]) << "1 vs 4 workers";
        EXPECT_EQ(digests[0], digests[2]) << "1 vs 8 workers";
    }
};

TEST_F(DrainSplit, YcsbFleetWithFaultsMatchesAtAnyWorkerCount)
{
    // fleet-ycsb-faults' shape at a tenth of its size, plus §4.3
    // interference, so interference buckets open and their ticks act.
    expectSameBytesAtAnyWorkerCount([] {
        return makeFleetScenario(
            "fleet-ycsb-40-h8+interference+daemons+hostloss", 42,
            SlotPolicy::ShortestJobFirst);
    });
}

TEST_F(DrainSplit, JitteredSharedSeriesFleetMatchesAtAnyWorkerCount)
{
    // A 2 µs jitter spread puts the members on two arrival instants,
    // 1 µs apart: each member's timeline (chain ends, reuse window,
    // billing horizon) is offset, and the drains stay big enough to
    // split. Series recording is on, so every tick's points count.
    expectSameBytesAtAnyWorkerCount([] {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        FleetBuilder builder(options);
        builder.profilingHosts(2)
            .shareRepository(RepositorySharing::Shared)
            .recordSeries(true)
            .arrivalJitter(7, 2);
        builder.add(ServiceKind::KeyValue, 22)
            .add(ServiceKind::SpecWeb, 21)
            .add(ServiceKind::Rubis, 21);
        return builder.build();
    });
}

/** A fleet stack plus one RightScale member on its simulation. */
struct RightScaleBeside
{
    std::unique_ptr<FleetStack> stack;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<KeyValueService> service;
    std::unique_ptr<RightScalePolicy> policy;
};

TEST_F(DrainSplit, RightScaleMemberBesideControllersMatches)
{
    // RightScale declares no split: every one of its ticks acts (and
    // may resize its cluster), and its recorder then runs after it.
    std::vector<std::unique_ptr<RightScaleBeside>> keep;
    expectSameBytesAtAnyWorkerCount([&keep] {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        auto run = std::make_unique<RightScaleBeside>();
        run->stack = makeCassandraFleet(40, options);
        Simulation &sim = *run->stack->sim;
        run->cluster = std::make_unique<Cluster>(sim.queue(),
                                                 Cluster::Config{});
        run->service = std::make_unique<KeyValueService>(
            sim.queue(), *run->cluster, Rng(11));
        run->policy = std::make_unique<RightScalePolicy>(
            *run->service, Rng(13), RightScalePolicy::Config{});
        const FleetMember &first = *run->stack->members.front();
        run->stack->experiment->addService(
            "rightscale", *run->service, *run->policy, first.trace,
            first.experimentConfig);
        std::unique_ptr<FleetStack> stack = std::move(run->stack);
        keep.push_back(std::move(run));
        return stack;
    });
}

/** A member whose observe phase schedules an event. */
class SchedulingListener : public TickListener
{
  public:
    explicit SchedulingListener(Simulation &sim) : _sim(sim) {}

    bool observe(int, const Service::PerfSample &) override
    {
        _sim.queue().scheduleAfter(seconds(1), [] {});
        return false;
    }
    void act(int, const Service::PerfSample &) override {}

  private:
    Simulation &_sim;
};

TEST(DrainSplitDeathTest, ObservePhaseRejectsEventScheduling)
{
    // The member-local guard: an observe() that schedules an event
    // would make the outcome depend on which worker got there first.
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Silent);
            const LoadTrace trace = scenarioTrace("messenger", 1, 42);
            Simulation sim;
            ServiceHarness harness(sim, trace, 7, 1);
            FleetSampler sampler(sim);
            const std::size_t index = sampler.registerService(
                *harness.service, *harness.driver,
                FleetSampler::Cadence{});
            SchedulingListener listener(sim);
            sampler.addListener(index, listener);
            sim.runUntil(hours(1));
        },
        "event scheduled from member-local work");
}

} // namespace
} // namespace dejavu
