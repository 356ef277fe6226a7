/**
 * @file
 * Unit tests for the VM lifecycle and cluster scaling (sim/vm.hh,
 * sim/cluster.hh).
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "sim/vm.hh"

namespace dejavu {
namespace {

TEST(Vm, PreCreatedStartOnlyWarmsUp)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    EXPECT_EQ(vm.state(), VmState::Stopped);
    vm.start(q, /*preCreated=*/true);
    EXPECT_EQ(vm.state(), VmState::Warming);
    q.runUntil(seconds(19));
    EXPECT_EQ(vm.state(), VmState::Warming);
    q.runUntil(seconds(21));
    EXPECT_EQ(vm.state(), VmState::Running);
}

TEST(Vm, ColdBootPassesThroughBooting)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    vm.start(q, /*preCreated=*/false);
    EXPECT_EQ(vm.state(), VmState::Booting);
    q.runUntil(seconds(91));
    EXPECT_EQ(vm.state(), VmState::Warming);
    q.runUntil(seconds(111));
    EXPECT_EQ(vm.state(), VmState::Running);
}

TEST(Vm, StopDuringWarmupCancelsStart)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    vm.start(q, true);
    vm.stop(q);
    q.runUntil(minutes(5));
    EXPECT_EQ(vm.state(), VmState::Stopped);  // stale event ignored
}

TEST(Vm, RestartAfterStopWorks)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    vm.start(q, true);
    vm.stop(q);
    vm.start(q, true);
    q.runUntil(minutes(1));
    EXPECT_EQ(vm.state(), VmState::Running);
}

TEST(Vm, EffectiveCapacityReflectsInterference)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    EXPECT_DOUBLE_EQ(vm.effectiveCapacityFactor(), 0.0);  // stopped
    vm.start(q, true);
    q.runUntil(minutes(1));
    EXPECT_DOUBLE_EQ(vm.effectiveCapacityFactor(), 1.0);
    vm.setInterference(0.2);
    EXPECT_DOUBLE_EQ(vm.effectiveCapacityFactor(), 0.8);
}

TEST(VmDeath, InterferenceOutOfRange)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    EXPECT_DEATH(vm.setInterference(0.99), "out of range");
}

TEST(VmDeath, RetypeWhileRunningPanics)
{
    EventQueue q;
    Vm vm(0, InstanceType::Large);
    vm.start(q, true);
    q.runUntil(minutes(1));
    EXPECT_DEATH(vm.setType(InstanceType::XLarge), "stopped");
}

TEST(Cluster, StartsWithOneInstance)
{
    EventQueue q;
    Cluster c(q, {});
    EXPECT_EQ(c.activeInstances(), 1);
    q.runUntil(minutes(1));
    EXPECT_EQ(c.runningInstances(), 1);
}

TEST(Cluster, ScaleOutAddsWarmingInstances)
{
    EventQueue q;
    Cluster c(q, {});
    q.runUntil(minutes(1));
    c.setActiveInstances(4);
    EXPECT_EQ(c.activeInstances(), 4);
    EXPECT_EQ(c.runningInstances(), 1);  // others still warming
    q.runUntil(minutes(2));
    EXPECT_EQ(c.runningInstances(), 4);
}

TEST(Cluster, ScaleInStopsImmediately)
{
    EventQueue q;
    Cluster c(q, {});
    c.setActiveInstances(5);
    q.runUntil(minutes(1));
    c.setActiveInstances(2);
    EXPECT_EQ(c.runningInstances(), 2);
}

TEST(Cluster, ScaleUpRestartsWithNewType)
{
    EventQueue q;
    Cluster c(q, {});
    c.setActiveInstances(3);
    q.runUntil(minutes(1));
    c.setInstanceType(InstanceType::XLarge);
    // Retype restarts the VMs: capacity dips until warm.
    EXPECT_EQ(c.runningInstances(), 0);
    q.runUntil(minutes(2));
    EXPECT_EQ(c.runningInstances(), 3);
    EXPECT_DOUBLE_EQ(c.effectiveComputeUnits(), 3 * 8.0);
}

TEST(Cluster, DeployChangesCountAndType)
{
    EventQueue q;
    Cluster c(q, {});
    c.deploy({5, InstanceType::XLarge});
    q.runUntil(minutes(1));
    EXPECT_EQ(c.target(), (ResourceAllocation{5, InstanceType::XLarge}));
    EXPECT_DOUBLE_EQ(c.effectiveComputeUnits(), 40.0);
}

TEST(Cluster, EffectiveUnitsReflectInterference)
{
    EventQueue q;
    Cluster c(q, {});
    c.setActiveInstances(2);
    q.runUntil(minutes(1));
    c.vm(0).setInterference(0.5);
    EXPECT_DOUBLE_EQ(c.effectiveComputeUnits(), 4.0 * 0.5 + 4.0);
    EXPECT_DOUBLE_EQ(c.meanInterference(), 0.25);
}

TEST(Cluster, MaxAllocationTracksLargestTypeSeen)
{
    EventQueue q;
    Cluster c(q, {});
    EXPECT_EQ(c.maxAllocation(),
              (ResourceAllocation{10, InstanceType::Large}));
    c.deploy({2, InstanceType::XLarge});
    EXPECT_EQ(c.maxAllocation(),
              (ResourceAllocation{10, InstanceType::XLarge}));
}

TEST(Cluster, BillingAccruesByTargetCount)
{
    EventQueue q;
    Cluster c(q, {});
    q.runUntil(hours(1));          // 1 instance-hour at $0.34
    c.setActiveInstances(3);
    q.runUntil(hours(2));          // + 3 instance-hours
    EXPECT_NEAR(c.accruedDollars(), 0.34 * (1 + 3), 1e-9);
}

// --------------------------------------------------------------------
// The cached capacity sum: every VM write that can move a term marks
// the cluster stale, and the recomputed sum is the pool-order sum.
// EXPECT_EQ, not DOUBLE_EQ: the cache must be bit-identical to it.
// --------------------------------------------------------------------

/** Σ ECU(type) * capacity factor over the pool, in pool order. */
double
poolOrderUnits(const Cluster &c)
{
    double total = 0.0;
    for (int i = 0; i < c.poolSize(); ++i)
        total += c.vm(i).spec().computeUnits
            * c.vm(i).effectiveCapacityFactor();
    return total;
}

TEST(ClusterCapacity, PinnedInPlace)
{
    static_assert(!std::is_copy_constructible_v<Cluster>);
    static_assert(!std::is_move_constructible_v<Cluster>);
    static_assert(!std::is_copy_assignable_v<Cluster>);
    static_assert(!std::is_move_assignable_v<Cluster>);
}

TEST(ClusterCapacity, WarmStartAndItsWarmUpEvent)
{
    EventQueue q;
    Cluster c(q, {});
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 0.0);  // warming
    q.runUntil(minutes(1));
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 4.0);
}

TEST(ClusterCapacity, ColdBootAndBothTransitions)
{
    EventQueue q;
    Cluster::Config config;
    config.preCreated = false;
    Cluster c(q, config);
    c.vm(0).setInterference(0.1);
    EXPECT_EQ(c.vm(0).state(), VmState::Booting);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    q.runUntil(seconds(91));
    EXPECT_EQ(c.vm(0).state(), VmState::Warming);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    q.runUntil(seconds(111));
    EXPECT_EQ(c.vm(0).state(), VmState::Running);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_GT(c.effectiveComputeUnits(), 0.0);
}

TEST(ClusterCapacity, StopMidWarmUpThenRestart)
{
    EventQueue q;
    Cluster c(q, {});
    q.runUntil(minutes(1));
    c.setActiveInstances(3);  // VMs 1, 2 warm until t = 80 s
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    q.runUntil(seconds(70));
    c.setActiveInstances(2);  // VM 2 stops mid warm-up
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    c.setActiveInstances(3);  // and restarts: warm at t = 90 s
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    // The first start's warm-up event fires at 80 s and must not
    // bring VM 2 up early (the generation guard); VM 1's does.
    q.runUntil(seconds(85));
    EXPECT_EQ(c.vm(2).state(), VmState::Warming);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 8.0);
    q.runUntil(seconds(95));
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 12.0);
}

TEST(ClusterCapacity, ScaleOutInAndUpThroughDeploy)
{
    EventQueue q;
    Cluster c(q, {});
    q.runUntil(minutes(1));
    EXPECT_EQ(c.effectiveComputeUnits(), 4.0);
    c.deploy({4, InstanceType::Large});  // scale out
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    q.runUntil(minutes(2));
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 16.0);
    c.deploy({2, InstanceType::Large});  // scale in
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 8.0);
    c.deploy({2, InstanceType::XLarge});  // scale up
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 0.0);  // restarted, warming
    q.runUntil(minutes(3));
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_EQ(c.effectiveComputeUnits(), 16.0);
}

TEST(ClusterCapacity, InterferenceAndDaemonTheftThroughVm)
{
    EventQueue q;
    Cluster c(q, {});
    c.setActiveInstances(3);
    q.runUntil(minutes(1));
    EXPECT_EQ(c.effectiveComputeUnits(), 12.0);
    c.vm(1).setInterference(0.1);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    c.vm(0).setDaemonTheft(0.3);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    c.vm(2).setInterference(0.2);
    c.vm(2).setDaemonTheft(0.15);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    c.vm(1).setInterference(0.0);
    c.vm(0).setDaemonTheft(0.0);
    EXPECT_EQ(c.effectiveComputeUnits(), poolOrderUnits(c));
    EXPECT_LT(c.effectiveComputeUnits(), 12.0);
}

TEST(ClusterCapacity, RepeatedReadsAgree)
{
    EventQueue q;
    Cluster c(q, {});
    c.setActiveInstances(5);
    q.runUntil(minutes(1));
    c.vm(3).setInterference(0.35);
    const double first = c.effectiveComputeUnits();
    const double second = c.effectiveComputeUnits();
    EXPECT_EQ(first, second);
    EXPECT_EQ(second, poolOrderUnits(c));
}

TEST(ClusterDeath, DeployOutsidePool)
{
    EventQueue q;
    Cluster c(q, {});
    EXPECT_DEATH(c.deploy({11, InstanceType::Large}), "pool bounds");
    EXPECT_DEATH(c.setActiveInstances(0), "outside");
}

} // namespace
} // namespace dejavu
