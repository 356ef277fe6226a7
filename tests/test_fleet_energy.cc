/**
 * @file
 * Tests for the deployment-oriented extensions: the multi-service
 * fleet with a shared profiling host (Figure 2 / §3.3 isolation)
 * and the energy model (§1's consolidation argument).
 */

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "counters/profiler.hh"
#include "experiments/fleet.hh"
#include "profiling/work_queue.hh"
#include "services/keyvalue_service.hh"
#include "sim/cluster.hh"
#include "sim/energy.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace dejavu {
namespace {

// --------------------------------------------------------------------
// Energy model and meter.
// --------------------------------------------------------------------

TEST(EnergyModel, IdleFloorAndDynamicRange)
{
    EnergyModel model;
    const ResourceAllocation one{1, InstanceType::Large};
    const double idle = model.watts(one, 0.0);
    const double busy = model.watts(one, 1.0);
    EXPECT_DOUBLE_EQ(idle, 120.0);
    EXPECT_DOUBLE_EQ(busy, 230.0);
}

TEST(EnergyModel, ScalesWithAllocation)
{
    EnergyModel model;
    const ResourceAllocation one{1, InstanceType::Large};
    const ResourceAllocation five{5, InstanceType::Large};
    const ResourceAllocation xl{1, InstanceType::XLarge};
    EXPECT_DOUBLE_EQ(model.watts(five, 0.5),
                     5.0 * model.watts(one, 0.5));
    // An XL draws as much as two larges (two large-equivalents).
    EXPECT_DOUBLE_EQ(model.watts(xl, 0.5), 2.0 * model.watts(one, 0.5));
}

TEST(EnergyModel, UtilizationClamped)
{
    EnergyModel model;
    const ResourceAllocation a{2, InstanceType::Large};
    EXPECT_DOUBLE_EQ(model.watts(a, 1.7), model.watts(a, 1.0));
    EXPECT_DOUBLE_EQ(model.watts(a, -0.3), model.watts(a, 0.0));
}

TEST(EnergyMeter, IntegratesToKwh)
{
    EnergyMeter meter;
    meter.update(0, 1000.0);       // 1 kW
    EXPECT_NEAR(meter.kiloWattHours(hours(2)), 2.0, 1e-9);
    meter.update(hours(2), 0.0);
    EXPECT_NEAR(meter.kiloWattHours(hours(5)), 2.0, 1e-9);
}

TEST(EnergyMeter, ConsolidationSavesEnergy)
{
    // Fewer instances at higher utilization beat many idle ones —
    // the §1 argument for adaptive allocation.
    EnergyModel model;
    const double consolidated =
        model.watts({3, InstanceType::Large}, 0.8);
    const double sprawled = model.watts({10, InstanceType::Large}, 0.24);
    EXPECT_LT(consolidated, sprawled);
}

// --------------------------------------------------------------------
// Multi-service fleet with a shared profiling host.
// --------------------------------------------------------------------

class FleetTest : public ::testing::Test
{
  protected:
    Simulation sim;
    EventQueue &queue = sim.queue();

    struct ServiceStack
    {
        std::unique_ptr<Cluster> cluster;
        std::unique_ptr<KeyValueService> service;
        std::unique_ptr<ProfilerHost> profiler;
        std::unique_ptr<DejaVuController> controller;
    };

    ServiceStack makeStack(std::uint64_t seed)
    {
        ServiceStack s;
        s.cluster = std::make_unique<Cluster>(queue, Cluster::Config{});
        s.service = std::make_unique<KeyValueService>(
            queue, *s.cluster, Rng(seed));
        s.profiler = std::make_unique<ProfilerHost>(
            *s.service,
            Monitor(*s.service,
                    CounterModel(ServiceKind::KeyValue, Rng(seed + 1))),
            Rng(seed + 2));
        DejaVuController::Config cfg;
        cfg.slo = Slo::latency(60.0);
        cfg.searchSpace = scaleOutSearchSpace(10);
        s.controller = std::make_unique<DejaVuController>(
            *s.service, *s.profiler, cfg, Rng(seed + 3));

        std::vector<Workload> learning;
        for (double clients : {3000.0, 3400.0, 12000.0, 12500.0,
                               25000.0, 26000.0})
            learning.push_back({cassandraUpdateHeavy(), clients});
        s.controller->learn(learning);
        return s;
    }
};

TEST(SlotSchedulerPolicy, FifoPicksArrivalOrder)
{
    const auto sched = makeSlotScheduler(SlotPolicy::Fifo);
    EXPECT_EQ(sched->name(), "fifo");
    const std::vector<ProfilingRequest> waiting{
        {0, 5, 0, seconds(30), 9.0},
        {1, 2, 0, seconds(10), 0.0},
        {2, 7, 0, seconds(1), 99.0}};
    EXPECT_EQ(sched->pick(waiting), 1u);  // seq 2 arrived first
}

TEST(SlotSchedulerPolicy, SjfPicksShortestSlotTiesByArrival)
{
    const auto sched =
        makeSlotScheduler(SlotPolicy::ShortestJobFirst);
    EXPECT_EQ(sched->name(), "sjf");
    std::vector<ProfilingRequest> waiting{
        {0, 1, 0, seconds(20), 0.0},
        {1, 2, 0, seconds(10), 0.0},
        {2, 3, 0, seconds(15), 0.0}};
    EXPECT_EQ(sched->pick(waiting), 1u);  // 10 s slot
    waiting[2].slotDuration = seconds(10);
    EXPECT_EQ(sched->pick(waiting), 1u);  // tie: earlier seq wins
}

TEST(SlotSchedulerPolicy, SloDebtPicksDeepestDebtorTiesFifo)
{
    const auto sched = makeSlotScheduler(SlotPolicy::SloDebtFirst);
    EXPECT_EQ(sched->name(), "slo-debt");
    std::vector<ProfilingRequest> waiting{
        {0, 1, 0, seconds(10), 2.0},
        {1, 2, 0, seconds(10), 8.0},
        {2, 3, 0, seconds(10), 8.0}};
    EXPECT_EQ(sched->pick(waiting), 1u);  // deepest debt, first in
    // No debt anywhere: degrades to FIFO.
    for (auto &r : waiting)
        r.sloDebt = 0.0;
    EXPECT_EQ(sched->pick(waiting), 0u);
}

TEST(SlotSchedulerPolicy, DefaultGrantTakesLowestFreeHost)
{
    // Hosts are identical; the canonical placement is the pick()'ed
    // request on the lowest-numbered free host.
    const auto sched = makeSlotScheduler(SlotPolicy::ShortestJobFirst);
    const std::vector<ProfilingRequest> waiting{
        {0, 1, 0, seconds(20), 0.0},
        {1, 2, 0, seconds(5), 0.0}};
    const SlotGrant grant = sched->grant(waiting, {3, 5, 7});
    EXPECT_EQ(grant.request, 1u);  // the 5 s job
    EXPECT_EQ(grant.host, 3u);     // lowest free id
}

TEST(SlotSchedulerPolicy, AdaptiveSwitchesOnDepthAndDebt)
{
    AdaptiveSlotScheduler sched;  // depth >= 8, debt >= 1.0
    EXPECT_EQ(sched.name(), "adaptive");

    // Shallow queue, no debt: FIFO (arrival order, seq tie-break).
    std::vector<ProfilingRequest> shallow{
        {0, 5, 0, seconds(30), 0.0},
        {1, 2, 0, seconds(10), 0.0}};
    EXPECT_EQ(sched.modeFor(shallow), "fifo");
    EXPECT_EQ(sched.pick(shallow), 1u);  // seq 2 first
    EXPECT_EQ(sched.fifoPicks(), 1u);

    // Deep queue (>= 8 waiters), still no debt: shortest-job-first.
    std::vector<ProfilingRequest> deep;
    for (std::uint64_t i = 0; i < 8; ++i)
        deep.push_back({i, i, 0, seconds(20 + i), 0.0});
    deep[5].slotDuration = seconds(1);
    EXPECT_EQ(sched.modeFor(deep), "sjf");
    EXPECT_EQ(sched.pick(deep), 5u);  // the 1 s slot
    EXPECT_EQ(sched.sjfPicks(), 1u);

    // Outstanding debt trumps depth regardless of queue size.
    shallow[0].sloDebt = 1.0;
    EXPECT_EQ(sched.modeFor(shallow), "slo-debt");
    EXPECT_EQ(sched.pick(shallow), 0u);  // the debtor
    deep[3].sloDebt = 2.0;
    EXPECT_EQ(sched.modeFor(deep), "slo-debt");
    EXPECT_EQ(sched.pick(deep), 3u);
    EXPECT_EQ(sched.debtPicks(), 2u);
    EXPECT_EQ(sched.fifoPicks(), 1u);
    EXPECT_EQ(sched.sjfPicks(), 1u);
}

TEST(SlotSchedulerPolicy, AdaptiveHonorsCustomThresholds)
{
    AdaptiveSlotScheduler::Thresholds t;
    t.sjfQueueDepth = 2;
    t.debtTrigger = 5.0;
    AdaptiveSlotScheduler sched(t);

    // Depth 2 already counts as a burst under the custom threshold.
    std::vector<ProfilingRequest> waiting{
        {0, 1, 0, seconds(20), 0.0},
        {1, 2, 0, seconds(5), 0.0}};
    EXPECT_EQ(sched.modeFor(waiting), "sjf");

    // Debt below the trigger is ignored; the *total* across waiters
    // crossing it flips the mode.
    waiting[0].sloDebt = 2.0;
    waiting[1].sloDebt = 2.9;
    EXPECT_EQ(sched.modeFor(waiting), "sjf");
    waiting[1].sloDebt = 3.0;
    EXPECT_EQ(sched.modeFor(waiting), "slo-debt");
}

// --------------------------------------------------------------------
// Profiling host pool.
// --------------------------------------------------------------------

TEST(ProfilingHostPool, TracksBusyAndFreeHosts)
{
    ProfilingHostPool pool(3);
    EXPECT_EQ(pool.hosts(), 3);
    EXPECT_EQ(pool.busy(), 0);
    EXPECT_TRUE(pool.anyFree());
    EXPECT_EQ(pool.freeHosts(), (std::vector<std::size_t>{0, 1, 2}));

    pool.acquire(1);
    EXPECT_EQ(pool.busy(), 1);
    EXPECT_EQ(pool.freeHosts(), (std::vector<std::size_t>{0, 2}));

    pool.acquire(0);
    pool.acquire(2);
    EXPECT_FALSE(pool.anyFree());
    EXPECT_TRUE(pool.freeHosts().empty());

    pool.release(1);
    EXPECT_TRUE(pool.anyFree());
    EXPECT_EQ(pool.freeHosts(), (std::vector<std::size_t>{1}));
    EXPECT_EQ(pool.busy(), 2);
}

TEST(ProfilingHostPoolDeath, RejectsMisuse)
{
    EXPECT_DEATH(ProfilingHostPool(0), "1 host");
    ProfilingHostPool pool(2);
    EXPECT_DEATH(pool.acquire(2), "no such");
    EXPECT_DEATH(pool.release(0), "not busy");
    pool.acquire(0);
    EXPECT_DEATH(pool.acquire(0), "already busy");
}

TEST(SlotSchedulerPolicy, FactoryByNameMatchesEnum)
{
    EXPECT_EQ(makeSlotScheduler("fifo")->name(), "fifo");
    EXPECT_EQ(makeSlotScheduler("sjf")->name(), "sjf");
    EXPECT_EQ(makeSlotScheduler("slo-debt")->name(), "slo-debt");
    EXPECT_EQ(makeSlotScheduler("adaptive")->name(), "adaptive");
    EXPECT_EQ(slotPolicyNames().size(), 4u);
}

TEST(SlotSchedulerPolicyDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeSlotScheduler("lifo"),
                ::testing::ExitedWithCode(1), "unknown slot policy");
}

TEST_F(FleetTest, ConcurrentRequestsQueueForTheProfiler)
{
    auto s1 = makeStack(100);
    auto s2 = makeStack(200);
    auto s3 = makeStack(300);
    DejaVuFleet fleet(sim, seconds(10));
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);
    fleet.addService("C", *s3.service, *s3.controller);

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);
    fleet.requestAdaptation("B", w);
    fleet.requestAdaptation("C", w);
    queue.runUntil(minutes(5));

    ASSERT_EQ(fleet.log().size(), 3u);
    // First service profiles immediately; the third waits two slots.
    EXPECT_EQ(fleet.log()[0].queueDelay(), 0);
    EXPECT_EQ(fleet.log()[1].queueDelay(), seconds(10));
    EXPECT_EQ(fleet.log()[2].queueDelay(), seconds(20));
    EXPECT_EQ(fleet.maxQueueDelay(), seconds(20));
    // Every service still classified and deployed.
    for (const auto &entry : fleet.log())
        EXPECT_EQ(entry.decision.kind,
                  DejaVuController::DecisionKind::CacheHit);
}

TEST_F(FleetTest, SpacedRequestsPayNoQueueing)
{
    auto s1 = makeStack(400);
    auto s2 = makeStack(500);
    DejaVuFleet fleet(sim, seconds(10));
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);

    const Workload w{cassandraUpdateHeavy(), 3100.0};
    fleet.requestAdaptation("A", w);
    queue.runUntil(minutes(1));
    fleet.requestAdaptation("B", w);
    queue.runUntil(minutes(2));

    ASSERT_EQ(fleet.log().size(), 2u);
    EXPECT_EQ(fleet.log()[1].queueDelay(), 0);
}

TEST_F(FleetTest, TotalAdaptationIncludesQueueDelay)
{
    auto s1 = makeStack(600);
    auto s2 = makeStack(700);
    DejaVuFleet fleet(sim, seconds(10));
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);
    const Workload w{cassandraUpdateHeavy(), 25500.0};
    fleet.requestAdaptation("A", w);
    fleet.requestAdaptation("B", w);
    queue.runUntil(minutes(5));
    ASSERT_EQ(fleet.log().size(), 2u);
    EXPECT_GT(fleet.log()[1].totalAdaptation(),
              fleet.log()[1].decision.adaptationTime);
}

TEST_F(FleetTest, ShortestJobFirstReordersWaitingRequests)
{
    auto s1 = makeStack(900);
    auto s2 = makeStack(1000);
    auto s3 = makeStack(1100);
    DejaVuFleet fleet(sim, seconds(10),
                      makeSlotScheduler(SlotPolicy::ShortestJobFirst));
    fleet.addService("A", *s1.service, *s1.controller, seconds(30));
    fleet.addService("B", *s2.service, *s2.controller, seconds(20));
    fleet.addService("C", *s3.service, *s3.controller, seconds(5));

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);
    fleet.requestAdaptation("B", w);
    fleet.requestAdaptation("C", w);
    queue.runUntil(minutes(5));

    // A takes the free host on arrival; C's 5 s job then jumps B's
    // 20 s job.
    ASSERT_EQ(fleet.log().size(), 3u);
    EXPECT_EQ(fleet.log()[0].service, "A");
    EXPECT_EQ(fleet.log()[1].service, "C");
    EXPECT_EQ(fleet.log()[2].service, "B");
    EXPECT_EQ(fleet.log()[0].profilingStartedAt, 0);
    EXPECT_EQ(fleet.log()[1].profilingStartedAt, seconds(30));
    EXPECT_EQ(fleet.log()[2].profilingStartedAt, seconds(35));
    EXPECT_EQ(fleet.log()[1].slotDuration, seconds(5));
    EXPECT_EQ(fleet.slotsGranted(), 3u);
    EXPECT_EQ(fleet.waiting(), 0u);
}

TEST_F(FleetTest, SloDebtFirstGrantsDeepestDebtor)
{
    auto s1 = makeStack(1200);
    auto s2 = makeStack(1300);
    auto s3 = makeStack(1400);
    DejaVuFleet fleet(sim, seconds(10),
                      makeSlotScheduler(SlotPolicy::SloDebtFirst));
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);
    fleet.addService("C", *s3.service, *s3.controller);

    fleet.noteSloViolation("B");
    for (int i = 0; i < 3; ++i)
        fleet.noteSloViolation("C");
    EXPECT_EQ(fleet.sloDebt("C"), 3.0);

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);
    fleet.requestAdaptation("B", w);
    fleet.requestAdaptation("C", w);
    queue.runUntil(minutes(5));

    // A takes the free host on arrival; then C (debt 3) beats B
    // (debt 1).
    ASSERT_EQ(fleet.log().size(), 3u);
    EXPECT_EQ(fleet.log()[0].service, "A");
    EXPECT_EQ(fleet.log()[1].service, "C");
    EXPECT_EQ(fleet.log()[2].service, "B");
    // Granted members' debt is spent.
    EXPECT_EQ(fleet.sloDebt("B"), 0.0);
    EXPECT_EQ(fleet.sloDebt("C"), 0.0);
}

TEST_F(FleetTest, HostPoolRunsSlotsConcurrently)
{
    // M = 2: a three-request burst starts two slots immediately and
    // only the third waits — with never more than two hosts busy.
    auto s1 = makeStack(1500);
    auto s2 = makeStack(1600);
    auto s3 = makeStack(1700);
    DejaVuFleet fleet(sim, seconds(10), nullptr, /*profilingHosts=*/2);
    EXPECT_EQ(fleet.profilingHosts(), 2);
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);
    fleet.addService("C", *s3.service, *s3.controller);

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);
    fleet.requestAdaptation("B", w);
    EXPECT_EQ(fleet.busyHosts(), 2);
    fleet.requestAdaptation("C", w);
    EXPECT_EQ(fleet.waiting(), 1u);
    queue.runUntil(minutes(5));

    ASSERT_EQ(fleet.log().size(), 3u);
    // A and B profile in parallel on hosts 0 and 1; C takes the
    // first host to free.
    EXPECT_EQ(fleet.log()[0].queueDelay(), 0);
    EXPECT_EQ(fleet.log()[1].queueDelay(), 0);
    EXPECT_EQ(fleet.log()[0].host, 0u);
    EXPECT_EQ(fleet.log()[1].host, 1u);
    EXPECT_EQ(fleet.log()[2].queueDelay(), seconds(10));
    EXPECT_EQ(fleet.maxQueueDelay(), seconds(10));
    EXPECT_EQ(fleet.busyHosts(), 0);

    // Per-host isolation (§3.3): slots on the *same* host never
    // overlap even though the pool runs two at once.
    for (std::size_t i = 0; i < fleet.log().size(); ++i)
        for (std::size_t j = i + 1; j < fleet.log().size(); ++j) {
            const auto &a = fleet.log()[i];
            const auto &b = fleet.log()[j];
            if (a.host != b.host)
                continue;
            const bool disjoint =
                a.profilingStartedAt + a.slotDuration
                    <= b.profilingStartedAt ||
                b.profilingStartedAt + b.slotDuration
                    <= a.profilingStartedAt;
            EXPECT_TRUE(disjoint) << "host " << a.host;
        }
}

TEST_F(FleetTest, PoolSizedToBurstPaysNoQueueing)
{
    // M = 3 hosts absorb a 3-request burst entirely.
    auto s1 = makeStack(1800);
    auto s2 = makeStack(1900);
    auto s3 = makeStack(2000);
    DejaVuFleet fleet(sim, seconds(10), nullptr, /*profilingHosts=*/3);
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);
    fleet.addService("C", *s3.service, *s3.controller);

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);
    fleet.requestAdaptation("B", w);
    fleet.requestAdaptation("C", w);
    EXPECT_EQ(fleet.busyHosts(), 3);
    queue.runUntil(minutes(5));

    ASSERT_EQ(fleet.log().size(), 3u);
    EXPECT_EQ(fleet.maxQueueDelay(), 0);
    // Lowest-free-id placement: hosts 0, 1, 2 in grant order.
    EXPECT_EQ(fleet.log()[0].host, 0u);
    EXPECT_EQ(fleet.log()[1].host, 1u);
    EXPECT_EQ(fleet.log()[2].host, 2u);
}

TEST_F(FleetTest, GrantReleaseInterleavingReusesFreedHosts)
{
    // Staggered arrivals against a 2-host pool: the host freed by an
    // early finisher is re-granted while the other is still busy.
    auto s1 = makeStack(2100);
    auto s2 = makeStack(2200);
    auto s3 = makeStack(2300);
    auto s4 = makeStack(2400);
    DejaVuFleet fleet(sim, seconds(10), nullptr, /*profilingHosts=*/2);
    fleet.addService("A", *s1.service, *s1.controller, seconds(5));
    fleet.addService("B", *s2.service, *s2.controller, seconds(30));
    fleet.addService("C", *s3.service, *s3.controller, seconds(5));
    fleet.addService("D", *s4.service, *s4.controller, seconds(5));

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);  // host 0, 0..5 s
    fleet.requestAdaptation("B", w);  // host 1, 0..30 s
    fleet.requestAdaptation("C", w);  // waits for host 0 at 5 s
    fleet.requestAdaptation("D", w);  // then host 0 again at 10 s
    queue.runUntil(minutes(5));

    ASSERT_EQ(fleet.log().size(), 4u);
    EXPECT_EQ(fleet.log()[2].service, "C");
    EXPECT_EQ(fleet.log()[2].host, 0u);
    EXPECT_EQ(fleet.log()[2].profilingStartedAt, seconds(5));
    EXPECT_EQ(fleet.log()[3].service, "D");
    EXPECT_EQ(fleet.log()[3].host, 0u);
    EXPECT_EQ(fleet.log()[3].profilingStartedAt, seconds(10));
    // B's long slot kept host 1 busy throughout.
    EXPECT_EQ(fleet.log()[1].service, "B");
    EXPECT_EQ(fleet.log()[1].host, 1u);
    EXPECT_EQ(fleet.slotsGranted(), 4u);
}

TEST_F(FleetTest, DuplicateNamesRejected)
{
    auto s1 = makeStack(800);
    DejaVuFleet fleet(sim);
    fleet.addService("A", *s1.service, *s1.controller);
    EXPECT_DEATH(fleet.addService("A", *s1.service, *s1.controller),
                 "duplicate");
}

TEST_F(FleetTest, UnknownServiceIsFatal)
{
    DejaVuFleet fleet(sim);
    EXPECT_EXIT(fleet.requestAdaptation(
                    "ghost", {cassandraUpdateHeavy(), 1.0}),
                ::testing::ExitedWithCode(1), "unknown service");
}

TEST_F(FleetTest, DetachCancelsQueuedWork)
{
    // The implicit-slot-hold fix: a member that detaches while its
    // request waits must leave the queue — its controller never runs
    // and the members behind it close up.
    auto s1 = makeStack(2000);
    auto s2 = makeStack(2100);
    auto s3 = makeStack(2200);
    DejaVuFleet fleet(sim, seconds(10));
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);
    fleet.addService("C", *s3.service, *s3.controller);

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    fleet.requestAdaptation("A", w);  // granted (host free)
    fleet.requestAdaptation("B", w);  // queued
    fleet.requestAdaptation("C", w);  // queued
    EXPECT_EQ(fleet.waiting(), 2u);

    fleet.detachService("B");
    EXPECT_TRUE(fleet.detached("B"));
    EXPECT_EQ(fleet.waiting(), 1u);
    EXPECT_EQ(fleet.workQueue().stats().cancelledQueued, 1u);
    // Detaching twice is a no-op; requests for a detached member are
    // ignored instead of re-queueing it.
    fleet.detachService("B");
    fleet.requestAdaptation("B", w);
    EXPECT_EQ(fleet.waiting(), 1u);

    queue.runUntil(minutes(5));
    ASSERT_EQ(fleet.log().size(), 2u);
    EXPECT_EQ(fleet.log()[0].service, "A");
    EXPECT_EQ(fleet.log()[1].service, "C");
    // C moved up into B's place: one slot after A's, not two.
    EXPECT_EQ(fleet.log()[1].profilingStartedAt, seconds(10));
    EXPECT_EQ(fleet.slotsGranted(), 2u);
}

TEST_F(FleetTest, DetachCancelsDuringGrant)
{
    // The member detaches after its request was granted a host but
    // before the slot-start event fired: the work must not run, the
    // host must come back, and waiting members take it over.
    auto s1 = makeStack(2300);
    auto s2 = makeStack(2400);
    DejaVuFleet fleet(sim, seconds(10));
    fleet.addService("A", *s1.service, *s1.controller);
    fleet.addService("B", *s2.service, *s2.controller);

    const Workload w{cassandraUpdateHeavy(), 12200.0};
    queue.scheduleAfter(seconds(1), [&] {
        fleet.requestAdaptation("A", w);  // granted at once
        fleet.requestAdaptation("B", w);  // queued behind A
        EXPECT_EQ(fleet.busyHosts(), 1);
        fleet.detachService("A");  // A is granted-but-not-started
    });
    queue.runUntil(minutes(5));

    // A never ran; B got the freed host immediately (same instant).
    ASSERT_EQ(fleet.log().size(), 1u);
    EXPECT_EQ(fleet.log()[0].service, "B");
    EXPECT_EQ(fleet.log()[0].profilingStartedAt, seconds(1));
    EXPECT_EQ(fleet.workQueue().stats().cancelledGranted, 1u);
    EXPECT_EQ(fleet.workQueue().stats().cancelledQueued, 0u);
    EXPECT_EQ(fleet.slotsGranted(), 1u);
    EXPECT_EQ(fleet.busyHosts(), 0);
}

// --------------------------------------------------------------------
// Host-loss fault injection: a property-style sweep of 50 seeded
// random (kill-time, host, outage) schedules against the work queue.
// Whatever the schedule, the busy/free/dead bookkeeping must balance,
// no work item may leak or be double-granted, and nothing may strand
// in Granted state without a live grant.
// --------------------------------------------------------------------

TEST(HostLossProperty, RandomSchedulesNeverLeakOrOrphanWork)
{
    constexpr int kItems = 30;
    constexpr int kKills = 6;
    constexpr int kHosts = 3;

    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Simulation sim;
        ProfilingWorkQueue wq(sim, nullptr, kHosts);
        Rng rng(seed * 977 + 11);

        // Draw the whole schedule up front so event callbacks spend
        // no randomness (arrival order stays the only variable).
        struct Submission { SimTime at; SimTime duration; };
        std::vector<Submission> submissions;
        for (int i = 0; i < kItems; ++i)
            submissions.push_back(
                {seconds(rng.uniformInt(0, 600)),
                 seconds(rng.uniformInt(5, 30))});
        struct Kill { SimTime at; std::size_t host; SimTime outage; };
        std::vector<Kill> kills;
        for (int k = 0; k < kKills; ++k)
            kills.push_back(
                {seconds(rng.uniformInt(0, 900)),
                 static_cast<std::size_t>(
                     rng.uniformInt(0, kHosts - 1)),
                 seconds(rng.uniformInt(60, 300))});

        std::vector<int> runs(kItems, 0);
        std::vector<int> cancels(kItems, 0);
        for (int i = 0; i < kItems; ++i)
            sim.queue().schedule(submissions[i].at, [&, i] {
                WorkItem item;
                item.kind = WorkKind::Signature;
                item.key = {ServiceKind::KeyValue, i % 4, 0};
                item.owner = static_cast<std::size_t>(i);
                item.duration =
                    submissions[static_cast<std::size_t>(i)].duration;
                wq.submit(
                    item,
                    [&runs, i](const ProfilingWorkQueue::WorkGrant &) {
                        ++runs[static_cast<std::size_t>(i)];
                        return SimTime(0);
                    },
                    [&cancels, i](const WorkItem &,
                                  WorkCancelReason reason) {
                        EXPECT_EQ(reason, WorkCancelReason::HostLost);
                        ++cancels[static_cast<std::size_t>(i)];
                    });
            });

        auto balanced = [&] {
            return wq.pool().busy() + wq.pool().dead()
                + static_cast<int>(wq.pool().freeHosts().size())
                == kHosts;
        };
        std::vector<char> down(kHosts, 0);
        std::uint64_t executedKills = 0;
        for (const auto &kill : kills)
            sim.queue().schedule(kill.at, [&, kill] {
                if (down[kill.host])
                    return;  // already dead: this kill misfires
                down[kill.host] = 1;
                ++executedKills;
                wq.failHost(kill.host);
                EXPECT_EQ(wq.orphanedItems(), 0u);
                EXPECT_TRUE(balanced());
                sim.queue().scheduleAfter(kill.outage, [&, kill] {
                    down[kill.host] = 0;
                    wq.restoreHost(kill.host);
                    EXPECT_EQ(wq.orphanedItems(), 0u);
                    EXPECT_TRUE(balanced());
                });
            });

        sim.queue().runUntil(hours(2));

        // Every host came back and every slot was released.
        EXPECT_EQ(wq.pool().dead(), 0) << "seed " << seed;
        EXPECT_EQ(wq.pool().busy(), 0) << "seed " << seed;
        EXPECT_TRUE(balanced()) << "seed " << seed;
        EXPECT_EQ(wq.orphanedItems(), 0u) << "seed " << seed;
        EXPECT_EQ(wq.submitted(),
                  static_cast<std::size_t>(kItems));

        // No item leaked (ran nor cancelled) or was double-granted.
        std::uint64_t done = 0;
        for (int i = 0; i < kItems; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            EXPECT_EQ(runs[idx] + cancels[idx], 1)
                << "seed " << seed << " item " << i;
            done += static_cast<std::uint64_t>(runs[idx]);
        }
        const auto &stats = wq.stats();
        EXPECT_EQ(stats.signatureSlots, done) << "seed " << seed;
        EXPECT_EQ(stats.hostsFailed, executedKills);
        EXPECT_EQ(stats.hostsRestored, executedKills);
        EXPECT_EQ(stats.cancelledHostLost,
                  static_cast<std::uint64_t>(kItems) - done);
    }
}

} // namespace
} // namespace dejavu
