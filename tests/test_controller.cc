/**
 * @file
 * Unit tests for the DejaVu runtime controller (core/controller.hh):
 * learning, cache-hit reuse, unknown-workload fallback, interference
 * feedback.
 */

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "counters/profiler.hh"
#include "services/keyvalue_service.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"

namespace dejavu {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(3)};
    ProfilerHost profiler{
        service,
        Monitor(service, CounterModel(ServiceKind::KeyValue, Rng(5))),
        Rng(7)};

    DejaVuController::Config config()
    {
        DejaVuController::Config cfg;
        cfg.slo = Slo::latency(60.0);
        cfg.searchSpace = scaleOutSearchSpace(10);
        return cfg;
    }

    std::vector<Workload> learningSet()
    {
        std::vector<Workload> w;
        for (double clients : {3000.0, 3500.0, 9000.0, 9500.0,
                               20000.0, 21000.0, 33000.0, 34000.0})
            w.push_back({cassandraUpdateHeavy(), clients});
        return w;
    }
};

TEST_F(ControllerTest, LearningPopulatesRepository)
{
    DejaVuController dv(service, profiler, config(), Rng(9));
    EXPECT_FALSE(dv.learned());
    const auto report = dv.learn(learningSet());
    EXPECT_TRUE(dv.learned());
    EXPECT_GE(report.classes, 3);
    EXPECT_EQ(dv.repository().entries(),
              static_cast<std::size_t>(report.classes));
    EXPECT_GT(report.tuningExperiments, report.classes);
    EXPECT_EQ(report.samples, 8 * 3);  // trialsPerWorkload = 3
}

TEST_F(ControllerTest, SharedRepositoryReusesPeerClassTunings)
{
    SharedRepository repo;
    DejaVuController first(service, profiler, config(), Rng(9));
    EXPECT_FALSE(first.sharesRepository());
    first.attachRepository(repo);
    EXPECT_TRUE(first.sharesRepository());
    const auto ra = first.learn(learningSet());
    EXPECT_EQ(ra.classesReused, 0);  // nothing to reuse yet

    DejaVuController second(service, profiler, config(), Rng(13));
    second.attachRepository(repo);
    const auto rb = second.learn(learningSet());
    // Canonical class labels + the shared kind namespace: the
    // second same-kind controller reuses the first one's tunings
    // (both have >= 3 classes, so >= 3 probes hit).
    EXPECT_GE(rb.classesReused, 3);
    EXPECT_GT(second.repository().crossHits(), 0u);
    // Every cross hit in the repository is the second's.
    EXPECT_EQ(first.repository().crossHits(), 0u);

    // Both controllers still answer workload changes normally.
    const auto decision =
        second.onWorkloadChange({cassandraUpdateHeavy(), 9000.0});
    EXPECT_GE(decision.classId, -1);
}

TEST_F(ControllerTest, AttachAfterLearnIsFatal)
{
    SharedRepository repo;
    DejaVuController dv(service, profiler, config(), Rng(9));
    dv.learn(learningSet());
    EXPECT_DEATH(dv.attachRepository(repo), "after learn");
}

TEST_F(ControllerTest, AttachTwiceIsFatal)
{
    SharedRepository first;
    SharedRepository second;
    DejaVuController dv(service, profiler, config(), Rng(9));
    dv.attachRepository(first);
    EXPECT_DEATH(dv.attachRepository(second),
                 "attachRepository called twice");
}

TEST_F(ControllerTest, ClassAllocationsGrowWithLoad)
{
    DejaVuController dv(service, profiler, config(), Rng(11));
    const auto report = dv.learn(learningSet());
    // Some class must need few instances, some many.
    int mn = 99, mx = 0;
    for (const auto &a : report.classAllocations) {
        mn = std::min(mn, a.instances);
        mx = std::max(mx, a.instances);
    }
    EXPECT_LT(mn, mx);
}

TEST_F(ControllerTest, CacheHitReusesAllocation)
{
    DejaVuController dv(service, profiler, config(), Rng(13));
    dv.learn(learningSet());
    const auto d = dv.onWorkloadChange({cassandraUpdateHeavy(),
                                        20500.0});
    EXPECT_EQ(d.kind, DejaVuController::DecisionKind::CacheHit);
    EXPECT_GE(d.certainty, 0.6);
    // Adaptation is the ~10 s profiling window plus negligible
    // classification time (§3.5, Figure 8).
    EXPECT_GE(toSeconds(d.adaptationTime), 10.0);
    EXPECT_LT(toSeconds(d.adaptationTime), 12.0);
    // Deployment happens after the adaptation delay.
    queue.runUntil(queue.now() + seconds(11));
    EXPECT_EQ(cluster.target(), d.allocation);
}

TEST_F(ControllerTest, SimilarWorkloadsShareClass)
{
    DejaVuController dv(service, profiler, config(), Rng(15));
    dv.learn(learningSet());
    const auto a = dv.onWorkloadChange({cassandraUpdateHeavy(),
                                        20000.0});
    const auto b = dv.onWorkloadChange({cassandraUpdateHeavy(),
                                        21500.0});
    EXPECT_EQ(a.classId, b.classId);
    EXPECT_EQ(a.allocation, b.allocation);
}

TEST_F(ControllerTest, UnknownWorkloadDeploysFullCapacity)
{
    DejaVuController dv(service, profiler, config(), Rng(17));
    dv.learn(learningSet());
    // 3x the largest learned volume: far outside every class.
    const auto d = dv.onWorkloadChange({cassandraUpdateHeavy(),
                                        100000.0});
    EXPECT_EQ(d.kind,
              DejaVuController::DecisionKind::UnknownWorkload);
    EXPECT_EQ(d.allocation, cluster.maxAllocation());
    EXPECT_LT(d.certainty, 0.6);
    EXPECT_EQ(dv.consecutiveLowCertainty(), 1);
}

TEST_F(ControllerTest, RepeatedUnknownsRecommendRelearn)
{
    DejaVuController dv(service, profiler, config(), Rng(19));
    dv.learn(learningSet());
    for (int i = 0; i < 3; ++i)
        dv.onWorkloadChange({cassandraUpdateHeavy(), 100000.0 + i});
    EXPECT_TRUE(dv.relearnRecommended());
    // A classified workload resets the streak.
    dv.onWorkloadChange({cassandraUpdateHeavy(), 20000.0});
    EXPECT_FALSE(dv.relearnRecommended());
}

TEST_F(ControllerTest, SloFeedbackIgnoredWhenSatisfied)
{
    DejaVuController dv(service, profiler, config(), Rng(21));
    dv.learn(learningSet());
    dv.onWorkloadChange({cassandraUpdateHeavy(), 20000.0});
    queue.runUntil(queue.now() + minutes(5));
    Service::PerfSample ok;
    ok.meanLatencyMs = 30.0;
    ok.qosPercent = 99.0;
    EXPECT_FALSE(dv.onSloFeedback(ok).has_value());
}

TEST_F(ControllerTest, InterferenceFeedbackAddsResources)
{
    DejaVuController dv(service, profiler, config(), Rng(23));
    dv.learn(learningSet());
    const Workload w{cassandraUpdateHeavy(), 20000.0};
    service.setWorkload(w);
    const auto base = dv.onWorkloadChange(w);
    queue.runUntil(queue.now() + minutes(5));

    // Co-located tenants appear: capacity drops 20%.
    for (int i = 0; i < cluster.poolSize(); ++i)
        cluster.vm(i).setInterference(0.20);

    // Two consecutive violating samples are required.
    Service::PerfSample bad;
    bad.meanLatencyMs = service.meanLatencyMs();
    bad.qosPercent = 99.0;
    EXPECT_GT(bad.meanLatencyMs, 60.0);  // SLO is indeed violated
    EXPECT_FALSE(dv.onSloFeedback(bad).has_value());
    const auto reaction = dv.onSloFeedback(bad);
    ASSERT_TRUE(reaction.has_value());
    EXPECT_EQ(reaction->kind,
              DejaVuController::DecisionKind::InterferenceAdjust);
    EXPECT_GT(dv.interferenceBucket(), 0);
    EXPECT_GT(reaction->allocation.instances, base.allocation.instances);
    // The interference-aware entry is now cached.
    EXPECT_GT(dv.repository().entries(),
              static_cast<std::size_t>(dv.clustering().k));
}

TEST_F(ControllerTest, InterferenceCacheHitIsFast)
{
    DejaVuController dv(service, profiler, config(), Rng(25));
    dv.learn(learningSet());
    const Workload w{cassandraUpdateHeavy(), 20000.0};
    service.setWorkload(w);
    dv.onWorkloadChange(w);
    queue.runUntil(queue.now() + minutes(5));
    for (int i = 0; i < cluster.poolSize(); ++i)
        cluster.vm(i).setInterference(0.20);
    Service::PerfSample bad;
    bad.meanLatencyMs = service.meanLatencyMs();
    bad.qosPercent = 99.0;
    (void)dv.onSloFeedback(bad);
    const auto first = dv.onSloFeedback(bad);
    ASSERT_TRUE(first.has_value());
    const SimTime slowPath = first->adaptationTime;

    // Same situation next hour: the (class, bucket) entry hits.
    queue.runUntil(queue.now() + hours(1));
    dv.onWorkloadChange(w);
    queue.runUntil(queue.now() + minutes(5));
    bad.meanLatencyMs = service.meanLatencyMs();
    if (bad.meanLatencyMs > 60.0) {
        (void)dv.onSloFeedback(bad);
        const auto second = dv.onSloFeedback(bad);
        if (second.has_value()) {
            EXPECT_LT(second->adaptationTime, slowPath);
        }
    }
}

TEST_F(ControllerTest, InterferenceDetectionCanBeDisabled)
{
    auto cfg = config();
    cfg.interferenceDetection = false;
    DejaVuController dv(service, profiler, cfg, Rng(27));
    dv.learn(learningSet());
    dv.onWorkloadChange({cassandraUpdateHeavy(), 20000.0});
    queue.runUntil(queue.now() + minutes(5));
    Service::PerfSample bad;
    bad.meanLatencyMs = 200.0;
    bad.qosPercent = 99.0;
    EXPECT_FALSE(dv.onSloFeedback(bad).has_value());
    EXPECT_FALSE(dv.onSloFeedback(bad).has_value());
}

TEST_F(ControllerTest, AdaptationTimesRecorded)
{
    DejaVuController dv(service, profiler, config(), Rng(29));
    dv.learn(learningSet());
    const DejaVuController::Decision decisions[] = {
        dv.onWorkloadChange({cassandraUpdateHeavy(), 9000.0}),
        dv.onWorkloadChange({cassandraUpdateHeavy(), 33000.0})};
    for (const auto &decision : decisions)
        EXPECT_NEAR(toSeconds(decision.adaptationTime), 10.05, 0.5);
}

TEST_F(ControllerTest, DeescalatesWhenInterferenceClears)
{
    DejaVuController dv(service, profiler, config(), Rng(35));
    dv.learn(learningSet());
    const Workload w{cassandraUpdateHeavy(), 20000.0};
    service.setWorkload(w);
    const auto base = dv.onWorkloadChange(w);
    queue.runUntil(queue.now() + minutes(5));

    // Interference arrives; drive the escalation.
    for (int i = 0; i < cluster.poolSize(); ++i)
        cluster.vm(i).setInterference(0.25);
    Service::PerfSample bad;
    bad.meanLatencyMs = service.meanLatencyMs();
    bad.qosPercent = 99.0;
    ASSERT_GT(bad.meanLatencyMs, 60.0);
    (void)dv.onSloFeedback(bad);
    const auto escalated = dv.onSloFeedback(bad);
    ASSERT_TRUE(escalated.has_value());
    queue.runUntil(queue.now() + hours(1));
    const int inflated = cluster.target().instances;
    EXPECT_GT(inflated, base.allocation.instances);

    // The noisy neighbour leaves; several calm samples later the
    // controller steps back to the baseline allocation.
    for (int i = 0; i < cluster.poolSize(); ++i)
        cluster.vm(i).setInterference(0.0);
    for (int tick = 0; tick < 8; ++tick) {
        queue.runUntil(queue.now() + minutes(1));
        Service::PerfSample good;
        good.meanLatencyMs = service.meanLatencyMs();
        good.qosPercent = 99.0;
        (void)dv.onSloFeedback(good);
    }
    queue.runUntil(queue.now() + minutes(1));
    EXPECT_EQ(cluster.target().instances, base.allocation.instances);
}

TEST_F(ControllerTest, QosSloScaleUpPath)
{
    // The §4.2 configuration: fixed count, type toggling, QoS SLO.
    auto cfg = config();
    cfg.slo = Slo::qos(95.0);
    cfg.searchSpace = scaleUpSearchSpace(
        10, {InstanceType::Large, InstanceType::XLarge});
    DejaVuController dv(service, profiler, cfg, Rng(37));
    std::vector<Workload> learning;
    for (double clients : {20000.0, 21000.0, 60000.0, 62000.0})
        learning.push_back({cassandraUpdateHeavy(), clients});
    const auto report = dv.learn(learning);
    // The light class fits large; the heavy class needs extra-large.
    bool sawLarge = false, sawXl = false;
    for (const auto &a : report.classAllocations) {
        EXPECT_EQ(a.instances, 10);
        sawLarge |= a.type == InstanceType::Large;
        sawXl |= a.type == InstanceType::XLarge;
    }
    EXPECT_TRUE(sawLarge);
    EXPECT_TRUE(sawXl);

    const auto d = dv.onWorkloadChange({cassandraUpdateHeavy(),
                                        61000.0});
    EXPECT_EQ(d.kind, DejaVuController::DecisionKind::CacheHit);
    EXPECT_EQ(d.allocation.type, InstanceType::XLarge);
}

TEST_F(ControllerTest, MedoidRuleStillWorks)
{
    auto cfg = config();
    cfg.representativeRule =
        DejaVuController::RepresentativeRule::Medoid;
    DejaVuController dv(service, profiler, cfg, Rng(31));
    const auto report = dv.learn(learningSet());
    EXPECT_GE(report.classes, 3);
}

TEST_F(ControllerTest, ReuseBeforeLearningDies)
{
    DejaVuController dv(service, profiler, config(), Rng(33));
    EXPECT_DEATH(dv.onWorkloadChange({cassandraUpdateHeavy(), 1.0}),
                 "learn");
}

} // namespace
} // namespace dejavu
