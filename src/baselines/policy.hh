/**
 * @file
 * Common interface for provisioning controllers, so the experiment
 * harness can drive DejaVu and every baseline through one loop:
 * workload changes arrive at trace-hour boundaries, fine-grained
 * monitor ticks deliver production performance samples in between.
 */

#ifndef DEJAVU_BASELINES_POLICY_HH
#define DEJAVU_BASELINES_POLICY_HH

#include <string>
#include <vector>

#include "common/sim_time.hh"
#include "services/service.hh"
#include "sim/allocation.hh"

namespace dejavu {

/**
 * Abstract provisioning policy bound to one service.
 */
class ProvisioningPolicy
{
  public:
    explicit ProvisioningPolicy(Service &service);
    virtual ~ProvisioningPolicy() = default;

    ProvisioningPolicy(const ProvisioningPolicy &) = delete;
    ProvisioningPolicy &operator=(const ProvisioningPolicy &) = delete;

    virtual std::string name() const = 0;

    /** The trace moved to a new hourly workload. */
    virtual void onWorkloadChange(const Workload &workload) = 0;

    /** Fine-grained production monitoring tick. */
    virtual void onMonitorTick(const Service::PerfSample &sample)
    { (void)sample; }

    /**
     * The member-local half of onMonitorTick(), run in a monitor
     * drain's observe phase, possibly on a worker thread: it may read
     * and write only this policy's own service and state (no events,
     * repository or fleet calls). It either handles the tick exactly
     * as onMonitorTick() would and returns false, or changes nothing
     * and returns true — the tick must act: onMonitorTick() then runs
     * on the run thread, in due order. A policy that does not declare
     * the split acts on every tick.
     */
    virtual bool observeMonitorTick(const Service::PerfSample &sample)
    {
        (void)sample;
        return true;
    }

    /** Per-change adaptation latencies recorded so far (seconds). */
    const std::vector<double> &adaptationTimesSec() const
    { return _adaptationTimesSec; }

    Service &service() { return _service; }

  protected:
    Service &_service;
    std::vector<double> _adaptationTimesSec;

    /** Deploy an allocation after a delay, notifying the service. */
    void deployAfter(SimTime delay, const ResourceAllocation &allocation);

    /** Deploy immediately. */
    void deployNow(const ResourceAllocation &allocation);

    void recordAdaptation(SimTime duration)
    { _adaptationTimesSec.push_back(toSeconds(duration)); }
};

} // namespace dejavu

#endif // DEJAVU_BASELINES_POLICY_HH
