/**
 * @file
 * Tests for the multi-service fleet experiment: N services interleave
 * on one shared event queue, adaptation requests serialize on the
 * shared profiling host (§3.3), per-service series are recorded, and
 * runs are deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "experiments/runner.hh"
#include "experiments/scenario.hh"

namespace dejavu {
namespace {

class FleetExperimentTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _before = logLevel();
        setLogLevel(LogLevel::Silent);
    }
    void TearDown() override { setLogLevel(_before); }

    static std::unique_ptr<FleetStack> makeFleet(int services,
                                                 std::uint64_t seed,
                                                 int days = 3)
    {
        ScenarioOptions options;
        options.seed = seed;
        options.traceName = "messenger";
        options.days = days;
        auto stack = makeCassandraFleet(services, options);
        stack->learnAll();
        return stack;
    }

    /** Every adaptation a fleet completes, in grant order; the fleet
     *  keeps no record itself, so tests collect one through its
     *  listener (attach before run()). */
    using Completed = std::vector<DejaVuFleet::CompletedAdaptation>;

    static void recordCompleted(DejaVuFleet &fleet, Completed &into)
    {
        fleet.addListener(
            [&into](const DejaVuFleet::CompletedAdaptation &entry) {
                into.push_back(entry);
            });
    }

  private:
    LogLevel _before = LogLevel::Info;
};

TEST_F(FleetExperimentTest, ThreeServicesShareOneQueue)
{
    auto stack = makeFleet(3, 42);
    const auto results = stack->experiment->run();
    ASSERT_EQ(results.size(), 3u);

    for (const auto &sr : results) {
        // Full per-service series, one point per monitor tick
        // (~60/hour for 3 days), time-monotone.
        EXPECT_GT(sr.result.latencyMs.size(), 3u * 24 * 50) << sr.name;
        EXPECT_EQ(sr.result.latencyMs.size(),
                  sr.result.qosPercent.size());
        EXPECT_EQ(sr.result.latencyMs.size(),
                  sr.result.instances.size());
        for (std::size_t i = 1; i < sr.result.latencyMs.size(); ++i)
            ASSERT_GE(sr.result.latencyMs[i].timeHours,
                      sr.result.latencyMs[i - 1].timeHours);
        // Reuse-window adaptations happened and the SLO largely held.
        EXPECT_GT(sr.adaptations, 0) << sr.name;
        EXPECT_LT(sr.result.sloViolationFraction, 0.25) << sr.name;
        EXPECT_GT(sr.result.savingsPercent, 20.0) << sr.name;
    }
}

TEST_F(FleetExperimentTest, ProfilingSlotsNeverOverlap)
{
    // §3.3 Isolation: signatures must not be disturbed by other
    // profiling processes on the shared host — slots are disjoint.
    auto stack = makeFleet(3, 42);
    Completed completed;
    recordCompleted(stack->experiment->fleet(), completed);
    stack->experiment->run();

    ASSERT_GT(completed.size(), 10u);
    std::vector<std::pair<SimTime, SimTime>> slots;  // (start, end)
    for (const auto &entry : completed)
        slots.emplace_back(entry.profilingStartedAt,
                           entry.profilingStartedAt
                               + entry.slotDuration);
    std::sort(slots.begin(), slots.end());
    for (std::size_t i = 1; i < slots.size(); ++i)
        ASSERT_GE(slots[i].first, slots[i - 1].second);
}

TEST_F(FleetExperimentTest, ConcurrentChangesPayQueueingDelay)
{
    // All services change workload at each trace hour, so the 2nd
    // and 3rd in line queue behind the first (10 s slots).
    auto stack = makeFleet(3, 42);
    Completed completed;
    recordCompleted(stack->experiment->fleet(), completed);
    const auto results = stack->experiment->run();

    const auto &fleet = stack->experiment->fleet();
    EXPECT_GE(fleet.maxQueueDelay(), seconds(20));

    // The queue delay is charged to adaptation time, per service.
    bool someServiceQueued = false;
    for (const auto &sr : results) {
        if (sr.maxQueueDelay > 0) {
            someServiceQueued = true;
            EXPECT_EQ(static_cast<int>(sr.queueDelaySec.count()),
                      sr.adaptations) << sr.name;
        }
    }
    EXPECT_TRUE(someServiceQueued);
    ASSERT_FALSE(completed.empty());
    for (const auto &entry : completed)
        ASSERT_EQ(entry.totalAdaptation(),
                  entry.queueDelay() + entry.decision.adaptationTime);
}

TEST_F(FleetExperimentTest, SingleServiceFleetPaysNoQueueing)
{
    auto stack = makeFleet(1, 42);
    const auto results = stack->experiment->run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(stack->experiment->fleet().maxQueueDelay(), 0);
}

TEST_F(FleetExperimentTest, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        auto stack = makeFleet(3, 1234);
        return stack->experiment->run();
    };
    const auto a = runOnce();
    const auto b = runOnce();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_DOUBLE_EQ(a[s].result.costDollars,
                         b[s].result.costDollars);
        EXPECT_DOUBLE_EQ(a[s].result.sloViolationFraction,
                         b[s].result.sloViolationFraction);
        EXPECT_EQ(a[s].result.latencyMs.size(),
                  b[s].result.latencyMs.size());
        EXPECT_EQ(a[s].adaptations, b[s].adaptations);
        EXPECT_EQ(a[s].maxQueueDelay, b[s].maxQueueDelay);
    }
}

TEST_F(FleetExperimentTest, ShortHorizonMemberStopsAccruing)
{
    // Members may run different horizons; a member whose trace ends
    // early must not be billed while longer members finish.
    ScenarioOptions options;
    options.seed = 42;
    options.traceName = "messenger";
    options.days = 4;
    auto stack = makeCassandraFleet(2, options);
    // First member stops after 2 days; second runs all 4.
    auto &shortMember = *stack->members.front();
    shortMember.experimentConfig.totalHours = 48;
    auto rebuilt = std::make_unique<FleetExperiment>(*stack->sim);
    for (auto &m : stack->members)
        rebuilt->addService(m->name, *m->service, *m->controller,
                            m->trace, m->experimentConfig);
    stack->experiment = std::move(rebuilt);
    stack->learnAll();

    const auto results = stack->experiment->run();
    ASSERT_EQ(results.size(), 2u);
    const auto &shortResult = results[0].result;
    // 24h reuse window: cost bounded by always-max for that window
    // (phantom accrual past hour 48 would blow through it).
    EXPECT_LE(shortResult.costDollars,
              shortResult.maxCostDollars * 1.001);
    EXPECT_GT(shortResult.savingsPercent, 0.0);
    EXPECT_LE(shortResult.energyKwh, shortResult.maxEnergyKwh);
    // The long member still covers its full 3-day reuse window.
    EXPECT_GT(results[1].result.latencyMs.size(),
              shortResult.latencyMs.size());
}

TEST_F(FleetExperimentTest, MixedFleetComposesHeterogeneousMembers)
{
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    auto stack = makeMixedFleet(6, options);
    ASSERT_EQ(stack->members.size(), 6u);

    // KeyValue, SpecWeb, Rubis cycling, each with its kind's SLO and
    // profiling-slot hint.
    const ServiceKind kinds[] = {ServiceKind::KeyValue,
                                 ServiceKind::SpecWeb,
                                 ServiceKind::Rubis};
    const SimTime slots[] = {seconds(10), seconds(15), seconds(20)};
    for (std::size_t i = 0; i < stack->members.size(); ++i) {
        const auto &m = *stack->members[i];
        EXPECT_EQ(m.service->kind(), kinds[i % 3]) << m.name;
        EXPECT_EQ(m.profilingSlot, slots[i % 3]) << m.name;
        EXPECT_EQ(m.service->profilingSlotHint(), slots[i % 3]);
    }
    EXPECT_EQ(stack->members[0]->experimentConfig.slo.kind,
              SloKind::LatencyBound);
    EXPECT_DOUBLE_EQ(
        stack->members[0]->experimentConfig.slo.latencyBoundMs, 60.0);
    EXPECT_EQ(stack->members[1]->experimentConfig.slo.kind,
              SloKind::QosFloor);
    EXPECT_DOUBLE_EQ(
        stack->members[1]->experimentConfig.slo.qosFloorPercent, 95.0);
    EXPECT_DOUBLE_EQ(
        stack->members[2]->experimentConfig.slo.latencyBoundMs, 150.0);
}

TEST_F(FleetExperimentTest, BuilderHonorsPerMemberOverrides)
{
    ScenarioOptions options;
    options.seed = 7;
    options.days = 2;
    FleetMemberSpec custom;
    custom.kind = ServiceKind::KeyValue;
    custom.name = "tenant-x";
    custom.traceName = "hotmail";
    custom.profilingSlot = seconds(3);
    custom.slo = Slo::latency(80.0);
    auto stack = FleetBuilder(options)
                     .add(ServiceKind::Rubis)
                     .add(custom)
                     .build();
    ASSERT_EQ(stack->members.size(), 2u);
    EXPECT_EQ(stack->members[0]->name, "svc-A");
    const auto &m = *stack->members[1];
    EXPECT_EQ(m.name, "tenant-x");
    EXPECT_EQ(m.profilingSlot, seconds(3));
    EXPECT_DOUBLE_EQ(m.experimentConfig.slo.latencyBoundMs, 80.0);
    // Different trace family than the default messenger member.
    EXPECT_EQ(m.trace.hours(), 2u * 24u);
}

TEST_F(FleetExperimentTest, MixedFleetRunsUnderEveryPolicy)
{
    for (const auto &policyName : slotPolicyNames()) {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        auto stack = makeMixedFleet(6, options,
                                    slotPolicyFromName(policyName));
        stack->learnAll();
        Completed completed;
        recordCompleted(stack->experiment->fleet(), completed);
        const auto results = stack->experiment->run();
        ASSERT_EQ(results.size(), 6u) << policyName;
        for (const auto &sr : results)
            EXPECT_GT(sr.adaptations, 0)
                << policyName << "/" << sr.name;

        // §3.3 isolation holds under every policy: heterogeneous
        // slots never overlap.
        ASSERT_FALSE(completed.empty()) << policyName;
        std::vector<std::pair<SimTime, SimTime>> slots;
        for (const auto &entry : completed)
            slots.emplace_back(entry.profilingStartedAt,
                               entry.profilingStartedAt
                                   + entry.slotDuration);
        std::sort(slots.begin(), slots.end());
        for (std::size_t i = 1; i < slots.size(); ++i)
            ASSERT_GE(slots[i].first, slots[i - 1].second)
                << policyName;

        const auto summary = stack->experiment->summary();
        EXPECT_EQ(summary.policy, policyName);
        EXPECT_EQ(summary.services, 6);
        EXPECT_EQ(summary.adaptations, completed.size());
        // Interpolated quantiles can differ from the exact max by
        // rounding in the last bits.
        EXPECT_GE(summary.adaptationP95Sec + 1e-9,
                  summary.adaptationP50Sec);
        EXPECT_GE(summary.adaptationMaxSec + 1e-9,
                  summary.adaptationP95Sec);
    }
}

TEST_F(FleetExperimentTest, SjfGrantsShortSlotsFirstUnderContention)
{
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    auto stack = makeMixedFleet(6, options,
                                SlotPolicy::ShortestJobFirst);
    stack->learnAll();
    Completed log;
    recordCompleted(stack->experiment->fleet(), log);
    stack->experiment->run();

    // All services request at each trace hour simultaneously. The
    // first in line takes the free host (arrival order), but every
    // later grant within the burst must pick the shortest waiting
    // slot: start-ordered entries of one burst have non-decreasing
    // durations after the first.
    ASSERT_GT(log.size(), 10u);
    std::map<SimTime, std::vector<std::pair<SimTime, SimTime>>> bursts;
    for (const auto &entry : log)
        bursts[entry.requestedAt].emplace_back(
            entry.profilingStartedAt, entry.slotDuration);
    int checkedBursts = 0;
    for (auto &[requestedAt, grants] : bursts) {
        if (grants.size() < 3)
            continue;
        std::sort(grants.begin(), grants.end());
        for (std::size_t i = 2; i < grants.size(); ++i)
            ASSERT_GE(grants[i].second, grants[i - 1].second)
                << "burst at " << requestedAt;
        ++checkedBursts;
    }
    EXPECT_GT(checkedBursts, 0);
}

TEST_F(FleetExperimentTest, ScalesTo100MixedServices)
{
    for (int n : {10, 50, 100}) {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        auto stack = makeMixedFleet(n, options);
        stack->learnAll();
        const auto results = stack->experiment->run();
        ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
        for (const auto &sr : results)
            EXPECT_GT(sr.adaptations, 0) << n << "/" << sr.name;
        const auto summary = stack->experiment->summary();
        EXPECT_EQ(summary.services, n);
        // 24 reuse hours, one signature request per service per
        // hour (tuner work shares the pool, so not all of them need
        // to complete within the horizon at M = 1).
        EXPECT_EQ(stack->experiment->fleet().workQueue().stats()
                      .signatureSubmitted,
                  static_cast<std::uint64_t>(24 * n));
    }
}

TEST_F(FleetExperimentTest, MoreProfilingHostsShrinkTheTails)
{
    // The ROADMAP's hosts-vs-p95 question in miniature: growing the
    // pool monotonically improves the queue-delay tail, and a pool as
    // large as the burst absorbs it entirely.
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    double lastP95 = -1.0;
    for (int hosts : {1, 2, 6}) {
        auto stack = makeMixedFleet(6, options, SlotPolicy::Fifo,
                                    hosts);
        stack->learnAll();
        stack->experiment->run();
        const auto summary = stack->experiment->summary();
        EXPECT_EQ(summary.hosts, hosts);
        EXPECT_EQ(stack->experiment->fleet().profilingHosts(), hosts);
        if (lastP95 >= 0.0) {
            EXPECT_LE(summary.queueDelayP95Sec, lastP95 + 1e-9)
                << hosts << " hosts";
        }
        lastP95 = summary.queueDelayP95Sec;
        if (hosts >= 6) {
            // 6 hosts for 6 services: every hourly burst fits.
            EXPECT_EQ(stack->experiment->fleet().maxQueueDelay(), 0);
            EXPECT_DOUBLE_EQ(summary.queueDelayMaxSec, 0.0);
        } else {
            EXPECT_GT(summary.queueDelayMaxSec, 0.0) << hosts;
        }
    }
}

TEST_F(FleetExperimentTest, PoolIsolationHoldsPerHost)
{
    // §3.3 isolation generalized to M hosts: same-host slots never
    // overlap, and with M > 1 some slots *do* overlap across hosts.
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    auto stack = makeMixedFleet(9, options, SlotPolicy::Adaptive, 3);
    stack->learnAll();
    Completed log;
    recordCompleted(stack->experiment->fleet(), log);
    stack->experiment->run();

    ASSERT_GT(log.size(), 10u);
    bool crossHostOverlap = false;
    for (std::size_t i = 0; i < log.size(); ++i)
        for (std::size_t j = i + 1; j < log.size(); ++j) {
            const auto &a = log[i];
            const auto &b = log[j];
            ASSERT_LT(a.host, 3u);
            const bool disjoint =
                a.profilingStartedAt + a.slotDuration
                    <= b.profilingStartedAt ||
                b.profilingStartedAt + b.slotDuration
                    <= a.profilingStartedAt;
            if (a.host == b.host) {
                ASSERT_TRUE(disjoint)
                    << "same-host overlap on host " << a.host;
            } else if (!disjoint) {
                crossHostOverlap = true;
            }
        }
    EXPECT_TRUE(crossHostOverlap);
}

TEST_F(FleetExperimentTest, AdaptivePolicyEngagesUnderBurst)
{
    // On a contended mixed fleet the adaptive scheduler must actually
    // switch modes (the hourly burst is deeper than its threshold)
    // and its tails must track the best fixed policy's ballpark.
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    auto stack = makeMixedFleet(12, options, SlotPolicy::Adaptive);
    stack->learnAll();
    stack->experiment->run();

    const auto &sched = dynamic_cast<const AdaptiveSlotScheduler &>(
        stack->experiment->fleet().scheduler());
    // The 12-service hourly burst exceeds sjfQueueDepth = 8, so SJF
    // mode must have fired; an uncontended tail end means FIFO fired
    // too.
    EXPECT_GT(sched.sjfPicks(), 0u);
    EXPECT_GT(sched.fifoPicks(), 0u);
    EXPECT_EQ(stack->experiment->summary().policy, "adaptive");
}

TEST_F(FleetExperimentTest, SharedRepositoryReusesPeerLearnings)
{
    // The shared-repository hypothesis live: in a mixed fleet the
    // first member of each kind tunes its classes, and every later
    // same-kind member's learning probe hits those entries instead
    // of running the tuner.
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    auto stack = makeMixedFleet(6, options, SlotPolicy::Fifo, 1,
                                RepositorySharing::Shared);
    ASSERT_NE(stack->experiment->sharedRepository(), nullptr);
    EXPECT_EQ(stack->experiment->sharing(), RepositorySharing::Shared);

    stack->learnAll();
    const SharedRepository &repo =
        *stack->experiment->sharedRepository();
    // 6 members, 3 kinds: members 4-6 learn after a same-kind peer,
    // so learning-phase cross hits must have happened. Every member
    // holds its own attachment to the one repository.
    std::uint64_t crossHits = 0;
    std::set<int> attachments;
    for (const auto &member : stack->members) {
        const RepositoryHandle &handle = member->controller->repository();
        EXPECT_EQ(handle.shared(), &repo);
        attachments.insert(handle.id());
        crossHits += handle.crossHits();
    }
    EXPECT_GT(crossHits, 0u);
    EXPECT_EQ(attachments.size(), 6u);
    // All three kind namespaces are populated and disjoint, and no
    // other kind is.
    std::size_t kindEntries = 0;
    for (const ServiceKind kind :
         {ServiceKind::KeyValue, ServiceKind::SpecWeb,
          ServiceKind::Rubis}) {
        const std::size_t entries = repo.snapshot(kind).entries();
        EXPECT_GT(entries, 0u);
        kindEntries += entries;
    }
    EXPECT_EQ(repo.entries(), kindEntries);

    const auto results = stack->experiment->run();
    for (const auto &sr : results)
        EXPECT_GT(sr.adaptations, 0) << sr.name;
    const auto summary = stack->experiment->summary();
    EXPECT_EQ(summary.sharing, "shared");
    EXPECT_GT(summary.repoCrossHits, 0u);
    // Distinct reuse (tuner runs avoided) is bounded by peer-served
    // reads: repeated lookups of a reused entry only count once.
    EXPECT_GT(summary.repoReusedEntries, 0u);
    EXPECT_LE(summary.repoReusedEntries, summary.repoCrossHits);
    EXPECT_GT(summary.repoLookups, 0u);
}

TEST_F(FleetExperimentTest, SharingRejectsMismatchedSameKindSlos)
{
    // Entries carry no SLO, so sharing between same-kind members
    // with different SLOs would silently serve allocations tuned
    // for the wrong objective — the composition must refuse.
    auto buildMismatched = [] {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        FleetMemberSpec strict;
        strict.kind = ServiceKind::KeyValue;
        strict.slo = Slo::latency(30.0);
        FleetBuilder(options)
            .shareRepository(RepositorySharing::Shared)
            .add(ServiceKind::KeyValue)
            .add(strict)
            .build();
    };
    EXPECT_EXIT(buildMismatched(), ::testing::ExitedWithCode(1),
                "requires one SLO");

    // Mixed trace families within a kind are just as incompatible:
    // canonical class ids only align for comparable distributions.
    auto buildMixedTraces = [] {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        FleetMemberSpec hotmail;
        hotmail.kind = ServiceKind::KeyValue;
        hotmail.traceName = "hotmail";
        FleetBuilder(options)
            .shareRepository(RepositorySharing::Shared)
            .add(ServiceKind::KeyValue)
            .add(hotmail)
            .build();
    };
    EXPECT_EXIT(buildMixedTraces(), ::testing::ExitedWithCode(1),
                "one trace family");

    // The same compositions are fine with private repositories.
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    FleetMemberSpec strict;
    strict.kind = ServiceKind::KeyValue;
    strict.slo = Slo::latency(30.0);
    strict.traceName = "hotmail";
    auto priv = FleetBuilder(options)
                    .add(ServiceKind::KeyValue)
                    .add(strict)
                    .build();
    EXPECT_EQ(priv->members.size(), 2u);
}

TEST_F(FleetExperimentTest, SharedHitRateBeatsPrivateBaseline)
{
    // The acceptance bar in miniature: the aggregate repository hit
    // rate under sharing is strictly above the private baseline
    // (learning probes that miss privately are served by peers).
    auto summaryFor = [](RepositorySharing sharing) {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        auto stack = makeMixedFleet(6, options, SlotPolicy::Fifo, 1,
                                    sharing);
        stack->learnAll();
        stack->experiment->run();
        return stack->experiment->summary();
    };
    const auto priv = summaryFor(RepositorySharing::Private);
    const auto shared = summaryFor(RepositorySharing::Shared);
    EXPECT_EQ(priv.sharing, "private");
    EXPECT_EQ(priv.repoCrossHits, 0u);
    EXPECT_GT(shared.repoHitRate, priv.repoHitRate);
}

TEST_F(FleetExperimentTest, CoalescingCollapsesSharedSignatureWork)
{
    // The tentpole claim in miniature: under the work-queue model
    // with a shared repository, same-class signature collections of
    // the hourly burst merge into one slot each, so shared-mode slot
    // demand drops measurably below private-mode while every member
    // still completes every adaptation.
    auto summaryFor = [](RepositorySharing sharing) {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        auto stack = makeMixedFleet(9, options, SlotPolicy::Fifo, 1,
                                    sharing);
        stack->learnAll();
        stack->experiment->run();
        return stack->experiment->summary();
    };
    const auto shared = summaryFor(RepositorySharing::Shared);
    const auto priv = summaryFor(RepositorySharing::Private);

    EXPECT_GT(shared.coalescedSignatures, 0u);
    EXPECT_EQ(priv.coalescedSignatures, 0u);
    // Every coalesced collection is a slot the pool did not grant.
    EXPECT_EQ(shared.signatureSlots + shared.coalescedSignatures,
              priv.signatureSlots);
    EXPECT_LT(shared.signatureSlots + shared.tunerSlots,
              priv.signatureSlots + priv.tunerSlots);
    // Less demand, same pool: the queue tail shrinks.
    EXPECT_LT(shared.queueDelayP95Sec, priv.queueDelayP95Sec);
    // Fan-out members still complete their adaptations (one per
    // member per reuse hour, plus any tuner completions).
    EXPECT_GE(shared.adaptations,
              static_cast<std::uint64_t>(9 * 24));
}

TEST_F(FleetExperimentTest, InterferenceMakesTunerRunsPoolWork)
{
    // With co-located tenant pressure injected, §3.6 tuner sequences
    // fire — under the work-queue model they consume pool slots, and
    // a shared repository avoids most of them (peers reuse each
    // other's interference tunings).
    auto summaryFor = [](RepositorySharing sharing) {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        options.interference = true;
        auto stack = makeMixedFleet(9, options, SlotPolicy::Fifo, 1,
                                    sharing);
        stack->learnAll();
        stack->startInjectors();
        stack->experiment->run();
        return stack->experiment->summary();
    };
    const auto priv = summaryFor(RepositorySharing::Private);
    const auto shared = summaryFor(RepositorySharing::Shared);
    EXPECT_GT(priv.tunerSlots, 0u);
    EXPECT_LT(shared.tunerSlots, priv.tunerSlots);
    EXPECT_GT(shared.repoReusedEntries, 0u);
}

TEST_F(FleetExperimentTest, JitteredArrivalsSpreadTheBurst)
{
    // The ROADMAP's de-synchronization question: offsetting each
    // member's trace hours spreads the hourly burst, so the pool
    // queue (and with it the adaptation tail) collapses even at
    // M = 1 — and the offsets are deterministic per (seed, member).
    auto buildWith = [](SimTime spread) {
        ScenarioOptions options;
        options.seed = 42;
        options.days = 2;
        FleetBuilder builder(options);
        builder.slotPolicy(SlotPolicy::Fifo);
        if (spread > 0)
            builder.arrivalJitter(7, spread);
        for (int i = 0; i < 9; ++i)
            builder.add(i % 2 == 0 ? ServiceKind::KeyValue
                                   : ServiceKind::Rubis);
        auto stack = builder.build();
        stack->learnAll();
        return stack;
    };

    auto sync = buildWith(0);
    sync->experiment->run();
    const auto syncSummary = sync->experiment->summary();

    auto jittered = buildWith(minutes(45));
    // Deterministic, spread-out offsets within the hour.
    bool anyOffset = false;
    for (std::size_t i = 0; i < jittered->members.size(); ++i) {
        const SimTime offset = jittered->members[i]->arrivalOffset;
        EXPECT_GE(offset, 0);
        EXPECT_LT(offset, minutes(45));
        anyOffset = anyOffset || offset > 0;
    }
    EXPECT_TRUE(anyOffset);
    {
        auto again = buildWith(minutes(45));
        for (std::size_t i = 0; i < jittered->members.size(); ++i)
            EXPECT_EQ(jittered->members[i]->arrivalOffset,
                      again->members[i]->arrivalOffset);
    }
    Completed jitteredCompleted;
    recordCompleted(jittered->experiment->fleet(), jitteredCompleted);
    jittered->experiment->run();
    const auto jitSummary = jittered->experiment->summary();

    // Same signature demand, radically thinner queue tail.
    EXPECT_EQ(jittered->experiment->fleet().workQueue().stats()
                  .signatureSubmitted,
              sync->experiment->fleet().workQueue().stats()
                  .signatureSubmitted);
    EXPECT_GT(syncSummary.queueDelayP95Sec, 0.0);
    EXPECT_LT(jitSummary.queueDelayP95Sec,
              syncSummary.queueDelayP95Sec);
    // Members' changes really fire off the hour boundary.
    bool offHourArrival = false;
    for (const auto &entry : jitteredCompleted)
        offHourArrival = offHourArrival
            || entry.requestedAt % static_cast<SimTime>(kHour) != 0;
    EXPECT_TRUE(offHourArrival);
}

TEST_F(FleetExperimentTest, JitteredMemberBillsItsWholeReuseWindow)
{
    // A jittered member's reuse window runs from its reuse-start
    // change to its own horizon, both its arrival offset past the
    // hour; the recorder bills exactly that window.
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    FleetBuilder builder(options);
    builder.arrivalJitter(7, minutes(45)).add(ServiceKind::KeyValue, 3);
    auto stack = builder.build();
    stack->learnAll();

    const std::size_t n = stack->members.size();
    std::vector<double> atReuseStart(n), atHorizon(n);
    for (std::size_t i = 0; i < n; ++i) {
        const FleetMember &m = *stack->members[i];
        ASSERT_GT(m.arrivalOffset, 0) << m.name;
        const Cluster &cluster = *m.cluster;
        // totalHours is unset (-1): the member replays its whole trace.
        const SimTime reuseStart =
            m.experimentConfig.reuseStartHour * static_cast<SimTime>(kHour)
            + m.arrivalOffset;
        const SimTime horizon =
            static_cast<SimTime>(m.trace.hours()) * kHour + m.arrivalOffset;
        stack->sim->queue().schedule(reuseStart, [&cluster, &atReuseStart, i] {
            atReuseStart[i] = cluster.accruedDollars();
        });
        stack->sim->queue().schedule(horizon, [&cluster, &atHorizon, i] {
            atHorizon[i] = cluster.accruedDollars();
        });
    }

    const auto results = stack->experiment->run();
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(results[i].result.costDollars,
                  atHorizon[i] - atReuseStart[i])
            << results[i].name;
}

TEST_F(FleetExperimentTest, ServicesKeepIndependentAllocations)
{
    // Different per-service traces should show up as (at least
    // occasionally) different instance counts at the same instant.
    auto stack = makeFleet(3, 7);
    const auto results = stack->experiment->run();
    int differingTicks = 0;
    const auto &first = results[0].result.instances;
    const auto &second = results[1].result.instances;
    const std::size_t n = std::min(first.size(), second.size());
    for (std::size_t i = 0; i < n; ++i)
        if (first[i].value != second[i].value)
            ++differingTicks;
    EXPECT_GT(differingTicks, 0);
}

// --------------------------------------------------------------------
// Golden run outcomes: two small seed-42 fleets pinned to the sweep
// CSV row, the executed event count, and the exact (hex-float) member
// means of SLO violation and savings. Any change to what the run
// phase computes — sampling, capacity, control — moves one of them.
// --------------------------------------------------------------------

/** Learn and run @p stack, a seed-42 cell of @p scenario, and digest
 *  its outcome. */
std::string
runDigest(FleetStack &stack, const std::string &scenario)
{
    stack.learnAll();
    stack.startInjectors();
    const auto results = stack.experiment->run();
    double sloViolationPct = 0.0;
    double savingsPct = 0.0;
    for (const auto &r : results) {
        sloViolationPct += 100.0 * r.result.sloViolationFraction;
        savingsPct += r.result.savingsPercent;
    }
    sloViolationPct /= static_cast<double>(results.size());
    savingsPct /= static_cast<double>(results.size());
    const std::vector<FleetCellResult> rows{
        {SweepCell{scenario, stack.experiment->fleet().scheduler().name(),
                   42},
         stack.experiment->summary()}};
    const std::string csv = fleetSweepCsv(rows);
    char means[128];
    std::snprintf(means, sizeof means,
                  "events,%llu\nslo_violation_pct,%a\nsavings_pct,%a\n",
                  static_cast<unsigned long long>(
                      stack.sim->queue().executed()),
                  sloViolationPct, savingsPct);
    return csv.substr(csv.find('\n') + 1) + means;
}

std::string
goldenRunDigest(const std::string &scenario,
                SlotPolicy policy = SlotPolicy::ShortestJobFirst)
{
    return runDigest(*makeFleetScenario(scenario, 42, policy), scenario);
}

TEST_F(FleetExperimentTest, GoldenRunMixedSharedFleet)
{
    EXPECT_EQ(goldenRunDigest("fleet-mixed-12-h2-shared"),
              "fleet-mixed-12-h2-shared,sjf,42,12,2,shared,288,324,"
              "97.222,243,27,0,20.000,40.000,57.130,60.000,30.050,"
              "50.050,67.180,70.050,wq,165,0,123,0,0\n"
              "events,4327\n"
              "slo_violation_pct,0x1.20e38e38e38e3p+2\n"
              "savings_pct,0x1.52c93bcbea419p+5\n");
}

TEST_F(FleetExperimentTest, GoldenRunYcsbFleetWithFaults)
{
    EXPECT_EQ(goldenRunDigest("fleet-ycsb-8-h2+daemons+hostloss"),
              "fleet-ycsb-8-h2+daemons+hostloss,sjf,42,8,2,private,222,"
              "375,84.533,0,0,0,15.000,75.000,586.740,600.000,40.050,"
              "360.000,946.740,960.000,wq,192,30,0,0,0\n"
              "events,5257\n"
              "slo_violation_pct,0x1.b91c71c71c71dp+2\n"
              "savings_pct,0x1.9ea18a0ce512bp+5\n");
}

// --------------------------------------------------------------------
// Contended-pool goldens: forty YCSB members with daemons and host
// loss on two profiling hosts keep a deep backlog, so each slot policy
// grants in a different order and the four rows differ. They pin what
// every policy picks from the work queue's waiting view; a view that
// keeps a stale duration or debt moves them.
// --------------------------------------------------------------------

const char *const kContendedPool = "fleet-ycsb-40-h2+daemons+hostloss";

TEST_F(FleetExperimentTest, GoldenRunContendedPoolFifo)
{
    EXPECT_EQ(goldenRunDigest(kContendedPool, SlotPolicy::Fifo),
              "fleet-ycsb-40-h2+daemons+hostloss,fifo,42,40,2,private,"
              "1109,1889,82.266,0,0,0,225.000,1986.000,3553.380,"
              "3555.000,265.050,2526.000,3810.840,3900.000,wq,960,149,"
              "0,0,0\n"
              "events,14772\n"
              "slo_violation_pct,0x1.a271c71c71c72p+2\n"
              "savings_pct,0x1.91fae04b3ebbp+5\n");
}

TEST_F(FleetExperimentTest, GoldenRunContendedPoolSjf)
{
    EXPECT_EQ(goldenRunDigest(kContendedPool,
                              SlotPolicy::ShortestJobFirst),
              "fleet-ycsb-40-h2+daemons+hostloss,sjf,42,40,2,private,"
              "1105,1865,82.145,0,0,0,210.000,585.000,4403.760,"
              "12870.000,250.050,774.000,4925.040,13230.000,wq,960,145,"
              "0,0,0\n"
              "events,14673\n"
              "slo_violation_pct,0x1.9cffffffffffep+2\n"
              "savings_pct,0x1.92835f0ad8c8fp+5\n");
}

TEST_F(FleetExperimentTest, GoldenRunContendedPoolSloDebt)
{
    EXPECT_EQ(goldenRunDigest(kContendedPool, SlotPolicy::SloDebtFirst),
              "fleet-ycsb-40-h2+daemons+hostloss,slo-debt,42,40,2,"
              "private,1107,1849,82.369,0,0,0,225.000,2815.500,"
              "4580.940,5280.000,280.050,2911.500,4626.495,5290.050,wq,"
              "960,147,0,0,0\n"
              "events,14626\n"
              "slo_violation_pct,0x1.a4aaaaaaaaaaap+2\n"
              "savings_pct,0x1.92e9a0ce51295p+5\n");
}

TEST_F(FleetExperimentTest, GoldenRunContendedPoolAdaptive)
{
    auto stack =
        makeFleetScenario(kContendedPool, 42, SlotPolicy::Adaptive);
    EXPECT_EQ(runDigest(*stack, kContendedPool),
              "fleet-ycsb-40-h2+daemons+hostloss,adaptive,42,40,2,"
              "private,1102,1837,83.288,0,0,0,210.000,2340.000,"
              "4123.485,4335.000,265.050,2579.753,4133.535,4695.000,wq,"
              "960,142,0,0,0\n"
              "events,14631\n"
              "slo_violation_pct,0x1.94c71c71c71c6p+2\n"
              "savings_pct,0x1.91d7608f3553p+5\n");
    // The cell stays contended enough that every delegate is
    // consulted: FIFO while the queue is short, SJF in bursts, and
    // SLO-debt-first while violators wait.
    const auto &sched = dynamic_cast<const AdaptiveSlotScheduler &>(
        stack->experiment->fleet().scheduler());
    EXPECT_GT(sched.fifoPicks(), 0u);
    EXPECT_GT(sched.sjfPicks(), 0u);
    EXPECT_GT(sched.debtPicks(), 0u);
}

} // namespace
} // namespace dejavu
