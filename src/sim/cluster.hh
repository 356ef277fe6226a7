/**
 * @file
 * A pool of pre-created VMs that a provisioning controller scales out
 * (1..maxInstances identical instances) or up (instance type change),
 * mirroring the paper's EC2 testbed (§4: 20-VM cluster, 2..10 active
 * large instances for scale-out; 5+5 instances toggling L/XL for
 * scale-up).
 */

#ifndef DEJAVU_SIM_CLUSTER_HH
#define DEJAVU_SIM_CLUSTER_HH

#include <vector>

#include "common/sim_time.hh"
#include "sim/allocation.hh"
#include "sim/billing.hh"
#include "sim/vm.hh"

namespace dejavu {

class EventQueue;

/**
 * The scalable VM pool backing one service.
 */
class Cluster
{
  public:
    struct Config
    {
        int maxInstances = 10;                     ///< Pool size.
        InstanceType initialType = InstanceType::Large;
        Vm::Timing vmTiming = {};
        bool preCreated = true;   ///< Paper's setup: skip cold boots.
    };

    Cluster(EventQueue &queue, Config config);

    /** Pinned in place: every VM holds a pointer into its cluster,
     *  and their scheduled lifecycle events point at the VMs. */
    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** @name Scaling actions @{ */
    /**
     * Deploy an allocation: adjust active instance count and/or type.
     * Type changes restart the affected VMs (paying warm-up).
     */
    void deploy(const ResourceAllocation &allocation);

    /** Scale out/in only. */
    void setActiveInstances(int n);

    /** Scale up/down only (applies to all active instances). */
    void setInstanceType(InstanceType type);
    /** @} */

    /** Allocation most recently deployed (the *target*). */
    ResourceAllocation target() const { return _target; }

    /** Number of VMs currently able to serve (Running state). */
    int runningInstances() const;

    /** Number of VMs started (accruing cost): target count. */
    int activeInstances() const { return _target.instances; }

    /**
     * Aggregate effective compute units across running VMs, i.e.
     * Σ ECU(type) * (1 - interference). This is what the service
     * models consume, once per monitor sample. The sum is cached:
     * every VM write that can move a term marks it stale, and a
     * stale sum is recomputed over the whole pool in pool order —
     * never patched one term at a time, which would reorder the
     * floating-point additions.
     */
    double effectiveComputeUnits() const;

    /** Compute units when every active VM is warm and undisturbed. */
    double nominalComputeUnits() const
    { return _target.computeUnits(); }

    /** Mean interference level over running VMs (0 if none running). */
    double meanInterference() const;

    /** Largest deployable allocation (full capacity fallback). */
    ResourceAllocation maxAllocation() const
    { return {_config.maxInstances, _maxType}; }

    /** Per-VM access for interference injection and inspection. */
    Vm &vm(int index);
    const Vm &vm(int index) const;
    int poolSize() const { return static_cast<int>(_vms.size()); }

    /** Dollars accrued so far. */
    double accruedDollars() const;

    const BillingMeter &billing() const { return _billing; }

  private:
    EventQueue &_queue;
    Config _config;
    std::vector<Vm> _vms;
    ResourceAllocation _target;
    InstanceType _maxType;
    BillingMeter _billing;
    /** Last effectiveComputeUnits() sum, valid while !_unitsStale;
     *  the VMs set _unitsStale (see Vm::notifyCapacityChanges). */
    mutable double _units = 0.0;
    mutable bool _unitsStale = true;

    void rebill();
};

} // namespace dejavu

#endif // DEJAVU_SIM_CLUSTER_HH
