/**
 * @file
 * Unit tests for the queueing perf model and service models
 * (services/perf_model.hh, keyvalue/specweb services, slo.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/random.hh"
#include "services/keyvalue_service.hh"
#include "services/perf_model.hh"
#include "services/rubis_service.hh"
#include "services/slo.hh"
#include "services/specweb_service.hh"
#include "services/ycsb_service.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"

namespace dejavu {
namespace {

TEST(PerfModel, UtilizationBasics)
{
    EXPECT_DOUBLE_EQ(PerfModel::utilization(50.0, 100.0), 0.5);
    EXPECT_GT(PerfModel::utilization(1.0, 0.0), 1.0);  // saturated
}

TEST(PerfModel, LatencyFlatThenKnee)
{
    const double base = 10.0;
    const double low = PerfModel::meanLatencyMs(base, 0.1);
    const double mid = PerfModel::meanLatencyMs(base, 0.5);
    const double high = PerfModel::meanLatencyMs(base, 0.9);
    EXPECT_LT(low, base * 1.1);     // near base at low load
    EXPECT_LT(mid, base * 2.0);     // still moderate
    EXPECT_GT(high, base * 5.0);    // explodes near the knee
}

TEST(PerfModel, LatencyMonotoneInUtilization)
{
    double prev = 0.0;
    for (double rho = 0.0; rho <= 1.5; rho += 0.05) {
        const double l = PerfModel::meanLatencyMs(12.0, rho);
        EXPECT_GE(l, prev);
        prev = l;
    }
}

TEST(PerfModel, SaturationIsCapped)
{
    const double l = PerfModel::meanLatencyMs(10.0, 10.0);
    EXPECT_LE(l, PerfModel::Params().saturationCapMs);
}

TEST(PerfModel, QosHealthyBelowKnee)
{
    EXPECT_DOUBLE_EQ(PerfModel::qosPercent(0.5), 99.5);
    EXPECT_DOUBLE_EQ(PerfModel::qosPercent(0.82), 99.5);
}

TEST(PerfModel, QosDegradesAboveKnee)
{
    const double q1 = PerfModel::qosPercent(0.9);
    const double q2 = PerfModel::qosPercent(1.1);
    EXPECT_LT(q1, 99.5);
    EXPECT_LT(q2, q1);
    EXPECT_GE(q2, 50.0);  // floored
}

TEST(Slo, LatencyBound)
{
    const Slo s = Slo::latency(60.0);
    EXPECT_TRUE(s.satisfied(59.9, 0.0));
    EXPECT_FALSE(s.satisfied(60.1, 100.0));
    EXPECT_NE(s.toString().find("60"), std::string::npos);
}

TEST(Slo, QosFloor)
{
    const Slo s = Slo::qos(95.0);
    EXPECT_TRUE(s.satisfied(1000.0, 95.0));
    EXPECT_FALSE(s.satisfied(1.0, 94.9));
}

class KeyValueServiceTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(5)};

    void warmUp(int instances)
    {
        cluster.setActiveInstances(instances);
        queue.runUntil(queue.now() + minutes(1));
    }
};

TEST_F(KeyValueServiceTest, WritesCostMoreThanReads)
{
    EXPECT_LT(service.capacityPerEcu(cassandraUpdateHeavy()),
              service.capacityPerEcu(cassandraReadHeavy()));
    EXPECT_GT(service.baseLatencyMs(cassandraUpdateHeavy()),
              service.baseLatencyMs(cassandraReadHeavy()));
}

TEST_F(KeyValueServiceTest, LatencyRisesWithLoad)
{
    warmUp(4);
    const RequestMix mix = cassandraUpdateHeavy();
    service.setWorkload({mix, 1000.0});
    const double low = service.meanLatencyMs();
    service.setWorkload({mix, 15000.0});
    const double high = service.meanLatencyMs();
    EXPECT_GT(high, low);
}

TEST_F(KeyValueServiceTest, MoreInstancesLowerLatency)
{
    const RequestMix mix = cassandraUpdateHeavy();
    service.setWorkload({mix, 12000.0});
    warmUp(3);
    const double few = service.meanLatencyMs();
    warmUp(10);
    queue.runUntil(queue.now() + minutes(15));  // past rebalance
    const double many = service.meanLatencyMs();
    EXPECT_GT(few, many);
}

TEST_F(KeyValueServiceTest, RebalancingTransientAfterResize)
{
    warmUp(4);
    queue.runUntil(queue.now() + minutes(20));
    EXPECT_FALSE(service.rebalancing());
    cluster.setActiveInstances(6);
    service.onReconfigure();
    EXPECT_TRUE(service.rebalancing());
    EXPECT_LT(service.transientFactor(), 1.0);
    queue.runUntil(queue.now() + minutes(11));
    EXPECT_FALSE(service.rebalancing());
    EXPECT_DOUBLE_EQ(service.transientFactor(), 1.0);
}

TEST_F(KeyValueServiceTest, RetypeAloneDoesNotRebalance)
{
    warmUp(4);
    service.onReconfigure();  // sync: count change noted here
    queue.runUntil(queue.now() + minutes(20));
    cluster.setInstanceType(InstanceType::XLarge);
    service.onReconfigure();
    EXPECT_FALSE(service.rebalancing());  // same ring membership
}

TEST_F(KeyValueServiceTest, HypotheticalMatchesDeployedSteadyState)
{
    const RequestMix mix = cassandraUpdateHeavy();
    const Workload w{mix, 8000.0};
    service.setWorkload(w);
    warmUp(5);
    queue.runUntil(queue.now() + minutes(15));  // settle transients
    const double deployed = service.meanLatencyMs();
    const double hypothetical =
        service.hypotheticalLatencyMs(w, {5, InstanceType::Large});
    EXPECT_NEAR(deployed, hypothetical, 1e-9);
}

TEST_F(KeyValueServiceTest, InterferenceRaisesHypotheticalLatency)
{
    const Workload w{cassandraUpdateHeavy(), 8000.0};
    const ResourceAllocation a{5, InstanceType::Large};
    EXPECT_GT(service.hypotheticalLatencyMs(w, a, 0.2),
              service.hypotheticalLatencyMs(w, a, 0.0));
}

TEST_F(KeyValueServiceTest, SampleNoiseIsBounded)
{
    warmUp(5);
    service.setWorkload({cassandraUpdateHeavy(), 8000.0});
    const double mean = service.meanLatencyMs();
    for (int i = 0; i < 200; ++i) {
        const auto s = service.sample();
        EXPECT_GT(s.meanLatencyMs, mean * 0.6);
        EXPECT_LT(s.meanLatencyMs, mean * 1.4);
    }
}

class SpecWebServiceTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    SpecWebService service{queue, cluster, Rng(7)};
};

TEST_F(SpecWebServiceTest, DynamicContentCostsMore)
{
    EXPECT_GT(service.capacityPerEcu(specwebSupport()),
              service.capacityPerEcu(specwebBanking()));
}

TEST_F(SpecWebServiceTest, QosDegradesWithLoad)
{
    cluster.setActiveInstances(10);
    queue.runUntil(minutes(1));
    const RequestMix mix = specwebSupport();
    service.setWorkload({mix, 2000.0});
    const double lowLoadQos = service.qosPercent();
    service.setWorkload({mix, 60000.0});
    const double highLoadQos = service.qosPercent();
    EXPECT_GT(lowLoadQos, highLoadQos);
    EXPECT_GE(lowLoadQos, 99.0);
}

TEST_F(SpecWebServiceTest, XLargeDoublesCapacity)
{
    const Workload w{specwebSupport(), 30000.0};
    const double utilL = service.hypotheticalUtilization(
        w, {10, InstanceType::Large});
    const double utilXL = service.hypotheticalUtilization(
        w, {10, InstanceType::XLarge});
    EXPECT_NEAR(utilL, 2.0 * utilXL, 1e-9);
}

TEST_F(SpecWebServiceTest, KindDiscriminators)
{
    EXPECT_EQ(service.kind(), ServiceKind::SpecWeb);
    KeyValueService kv(queue, cluster, Rng(1));
    EXPECT_EQ(kv.kind(), ServiceKind::KeyValue);
}

// --------------------------------------------------------------------
// sample() evaluates its operating point once, reads the hooks
// setWorkload() evaluated, and memoizes the noiseless latency and QoS
// on the bits of (ρ, base latency). With latency noise off it reports
// the noiseless observables exactly (EXPECT_EQ, not DOUBLE_EQ); those
// call the model hooks afresh, so a stale hook value or memo entry
// shows. The QoS channel keeps its fixed noise, which a replica of
// the service's RNG replays.
// --------------------------------------------------------------------

/** The draws of a service constructed with Rng(@p seed): its RNG
 *  forks the client emulator's stream first. */
Rng
noiseReplica(std::uint64_t seed)
{
    Rng rng(seed);
    rng.fork();
    return rng;
}

/** Two samples — the first after a change misses the memo, the
 *  second hits it — each equal to the observables bit for bit. */
void
expectSampleMatchesObservables(Service &service, Rng &noise)
{
    service.setMeasurementNoise(0.0);
    const double rate = service.offeredRate();
    const double rho = service.utilization();
    const double latency = std::max(0.1, service.meanLatencyMs());
    const double qos = service.qosPercent();
    for (const char *pass : {"miss", "hit"}) {
        const Service::PerfSample s = service.sample();
        noise.gaussian();  // latency's draw, scaled by zero noise
        const double noisyQos =
            std::clamp(qos + 0.3 * noise.gaussian(), 0.0, 100.0);
        EXPECT_EQ(s.offeredRate, rate) << service.name() << ' ' << pass;
        EXPECT_EQ(s.utilization, rho) << service.name() << ' ' << pass;
        EXPECT_EQ(s.meanLatencyMs, latency)
            << service.name() << ' ' << pass;
        EXPECT_EQ(s.qosPercent, noisyQos)
            << service.name() << ' ' << pass;
    }
}

/** Four warm instances, one of them disturbed by both channels. */
void
warmDisturbedCluster(EventQueue &queue, Cluster &cluster)
{
    cluster.setActiveInstances(4);
    queue.runUntil(queue.now() + minutes(1));
    cluster.vm(1).setInterference(0.15);
    cluster.vm(1).setDaemonTheft(0.1);
}

TEST(ServiceSample, KeyValueMatchesObservables)
{
    EventQueue queue;
    Cluster cluster(queue, {});
    KeyValueService service(queue, cluster, Rng(11));
    Rng noise = noiseReplica(11);
    warmDisturbedCluster(queue, cluster);
    service.setWorkload({cassandraUpdateHeavy(), 9000.0});
    expectSampleMatchesObservables(service, noise);
    cluster.setActiveInstances(6);  // mid-rebalance transient
    service.onReconfigure();
    queue.runUntil(queue.now() + minutes(3));
    ASSERT_TRUE(service.rebalancing());
    expectSampleMatchesObservables(service, noise);
}

TEST(ServiceSample, SpecWebMatchesObservables)
{
    EventQueue queue;
    Cluster cluster(queue, {});
    SpecWebService service(queue, cluster, Rng(12));
    Rng noise = noiseReplica(12);
    warmDisturbedCluster(queue, cluster);
    service.setWorkload({specwebSupport(), 4000.0});
    expectSampleMatchesObservables(service, noise);
    service.setWorkload({specwebSupport(), 60000.0});  // past the knee
    expectSampleMatchesObservables(service, noise);
}

TEST(ServiceSample, RubisMatchesObservables)
{
    EventQueue queue;
    Cluster cluster(queue, {});
    RubisService service(queue, cluster, Rng(13));
    Rng noise = noiseReplica(13);
    warmDisturbedCluster(queue, cluster);
    service.setWorkload({rubisBidding(), 1500.0});
    expectSampleMatchesObservables(service, noise);
    service.setWorkload({rubisBrowsing(), 9000.0});
    expectSampleMatchesObservables(service, noise);
}

TEST(ServiceSample, YcsbMatchesObservables)
{
    EventQueue queue;
    Cluster cluster(queue, {});
    YcsbService service(queue, cluster, Rng(14));
    Rng noise = noiseReplica(14);
    warmDisturbedCluster(queue, cluster);
    service.setWorkload({ycsbUpdateHeavy(), 9000.0});
    expectSampleMatchesObservables(service, noise);
    cluster.setActiveInstances(6);  // mid cache warm-up transient
    service.onReconfigure();
    queue.runUntil(queue.now() + minutes(1));
    ASSERT_TRUE(service.warmingUp());
    expectSampleMatchesObservables(service, noise);
}

/** Capacity ignores the mix and base latency reads it, so two mixes
 *  at one client count give bit-identical ρ and different latencies. */
class MixBlindCapacityService : public Service
{
  public:
    using Service::Service;
    std::string name() const override { return "mix-blind-capacity"; }
    double capacityPerEcu(const RequestMix &) const override
    { return 300.0; }
    double baseLatencyMs(const RequestMix &mix) const override
    { return 8.0 + 8.0 * (1.0 - mix.readFraction); }
};

TEST(ServiceSample, NewMixAtSameUtilizationRecomputesLatency)
{
    // A memo keyed on ρ alone, or a base latency setWorkload() left
    // stale, would serve the first mix's latency for the second.
    EventQueue queue;
    Cluster cluster(queue, {});
    MixBlindCapacityService service(queue, cluster, Rng(16));
    Rng noise = noiseReplica(16);
    warmDisturbedCluster(queue, cluster);
    service.setWorkload({cassandraReadHeavy(), 6000.0});
    expectSampleMatchesObservables(service, noise);
    const double rho = service.utilization();
    const double readHeavyLatency = service.meanLatencyMs();

    service.setWorkload({cassandraUpdateHeavy(), 6000.0});
    ASSERT_EQ(service.utilization(), rho);
    ASSERT_NE(service.meanLatencyMs(), readHeavyLatency);
    expectSampleMatchesObservables(service, noise);
}

TEST(ServiceSample, SpecWebQosUsesItsKnee)
{
    EventQueue queue;
    Cluster cluster(queue, {});
    SpecWebService::Config config;
    config.qosKnee = 0.7;  // away from PerfModel's default 0.82
    SpecWebService service(queue, cluster, Rng(15), config);
    cluster.setActiveInstances(10);
    queue.runUntil(minutes(1));
    // Aim for rho ~0.85: past both knees, short of the 50% floor.
    service.setWorkload({specwebSupport(), 10000.0});
    const double clients = 10000.0 * 0.85 / service.utilization();
    service.setWorkload({specwebSupport(), clients});
    ASSERT_GT(service.utilization(), 0.83);
    ASSERT_LT(service.utilization(), 0.9);
    EXPECT_EQ(service.qosPercent(),
              PerfModel::qosPercent(service.utilization(),
                                    service.config().qosKnee));
    EXPECT_LT(service.qosPercent(),
              PerfModel::qosPercent(service.utilization()));

    // The sandbox evaluation the tuner and the profiler read goes
    // through the same knee.
    const Workload workload = service.workload();
    const ResourceAllocation allocation{10, cluster.target().type};
    const double rho =
        service.hypotheticalUtilization(workload, allocation);
    ASSERT_GT(rho, 0.7);
    EXPECT_EQ(service.hypotheticalQosPercent(workload, allocation),
              PerfModel::qosPercent(rho, service.config().qosKnee));
    EXPECT_LT(service.hypotheticalQosPercent(workload, allocation),
              PerfModel::qosPercent(rho));
}

} // namespace
} // namespace dejavu
