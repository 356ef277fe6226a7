/**
 * @file
 * Virtual machine lifecycle model.
 *
 * The paper pre-creates VM instances so that scaling actions only pay a
 * "short warm-up time" (§4, Testbed). We model the full lifecycle
 * anyway — Stopped → Booting → Warming → Running — so that both the
 * pre-created fast path and cold boots can be simulated.
 *
 * Each VM also carries an *interference level*: the fraction of its
 * nominal capacity currently consumed by co-located tenants on the same
 * physical host (§4.3 injects 10% or 20%).
 */

#ifndef DEJAVU_SIM_VM_HH
#define DEJAVU_SIM_VM_HH

#include <cstdint>
#include <string>

#include "common/sim_time.hh"
#include "sim/instance_type.hh"

namespace dejavu {

class EventQueue;

/** VM lifecycle states. */
enum class VmState { Stopped, Booting, Warming, Running };

/** Render a state name for logs. */
std::string vmStateName(VmState state);

/**
 * One virtual machine instance.
 */
class Vm
{
  public:
    /** Timing knobs for lifecycle transitions. */
    struct Timing
    {
        SimTime coldBoot = seconds(90);   ///< Stopped -> Running total.
        SimTime warmUp = seconds(20);     ///< Pre-created start cost.
    };

    Vm(std::uint32_t id, InstanceType type);
    Vm(std::uint32_t id, InstanceType type, Timing timing);

    std::uint32_t id() const { return _id; }
    VmState state() const { return _state; }
    InstanceType type() const { return _type; }
    const InstanceSpec &spec() const { return instanceSpec(_type); }

    /** Change the instance type; only legal while Stopped (scale-up
     *  experiments stop, retype and restart pre-created VMs). */
    void setType(InstanceType type);

    /**
     * Begin starting this VM on @p queue. Pre-created VMs (the
     * evaluation's configuration) skip the cold boot and only warm up.
     * No-op when already Running/Booting/Warming.
     */
    void start(EventQueue &queue, bool preCreated = true);

    /** Stop immediately (stopping is modelled as instantaneous). */
    void stop(EventQueue &queue);

    /** True when the VM can serve requests. */
    bool running() const { return _state == VmState::Running; }

    /** @name Interference from co-located tenants @{ */
    /** Combined fraction of capacity stolen by co-located tenants
     *  and background daemons, in [0, 0.95]: the two channels
     *  compose multiplicatively, 1 - (1 - tenant)(1 - daemon), so
     *  each thief takes its share of what the other left. With only
     *  one channel active this is exactly that channel's fraction
     *  (1 - (1 - x) rounds, so the single-thief case short-circuits
     *  rather than paying the round trip). */
    double interference() const
    {
        if (_daemonTheft == 0.0)
            return _interference;
        if (_interference == 0.0)
            return _daemonTheft;
        return 1.0 - (1.0 - _interference) * (1.0 - _daemonTheft);
    }
    void setInterference(double fraction);
    /** Background-daemon channel (dedup/scan co-runners): a second
     *  theft source that survives InterferenceInjector::stop() —
     *  daemons are host software, not a workload phase. */
    double daemonTheft() const { return _daemonTheft; }
    void setDaemonTheft(double fraction);
    /** @} */

    /**
     * Capacity multiplier: 0 when not running, otherwise
     * (1 - interference). Service models multiply their per-instance
     * capacity by this.
     */
    double effectiveCapacityFactor() const;

    /** Total accumulated running time (for billing sanity checks). */
    SimTime runningSince() const { return _runningSince; }

    /**
     * Have every later change to what effectiveCapacityFactor() or
     * spec() reports set @p *flag (the owning cluster's "capacity
     * sum is stale" bit).
     */
    void notifyCapacityChanges(bool *flag) { _capacityChanged = flag; }

  private:
    std::uint32_t _id;
    InstanceType _type;
    Timing _timing;
    VmState _state = VmState::Stopped;
    double _interference = 0.0;
    double _daemonTheft = 0.0;
    SimTime _runningSince = -1;
    std::uint64_t _startGeneration = 0;  ///< Invalidates in-flight starts.
    bool *_capacityChanged = nullptr;

    void setState(VmState state);
    void markCapacityChanged()
    {
        if (_capacityChanged)
            *_capacityChanged = true;
    }
};

} // namespace dejavu

#endif // DEJAVU_SIM_VM_HH
