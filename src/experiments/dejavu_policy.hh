/**
 * @file
 * Adapter exposing the DejaVuController through the common
 * ProvisioningPolicy interface, so the experiment harness can drive
 * DejaVu and the baselines identically.
 */

#ifndef DEJAVU_EXPERIMENTS_DEJAVU_POLICY_HH
#define DEJAVU_EXPERIMENTS_DEJAVU_POLICY_HH

#include "baselines/policy.hh"
#include "core/controller.hh"

namespace dejavu {

/**
 * ProvisioningPolicy facade over a DejaVuController.
 */
class DejaVuPolicy : public ProvisioningPolicy
{
  public:
    /**
     * @param autoRelearn when true, the §3.5 loop is closed: as soon
     *        as the controller recommends re-clustering (repeated
     *        low-certainty classifications), relearn() runs
     *        automatically.
     */
    DejaVuPolicy(Service &service, DejaVuController &controller,
                 bool autoRelearn = false);

    std::string name() const override { return "dejavu"; }

    void onWorkloadChange(const Workload &workload) override;
    void onMonitorTick(const Service::PerfSample &sample) override;
    bool observeMonitorTick(const Service::PerfSample &sample) override
    { return _controller.observeSloFeedback(sample); }

    DejaVuController &controller() { return _controller; }

    /** Count of unknown-workload (full-capacity fallback) events. */
    int unknownWorkloadEvents() const { return _unknownEvents; }

    /** Count of interference-adjustment reactions. */
    int interferenceAdjustments() const { return _interferenceEvents; }

    /** Automatic re-clustering runs triggered so far. */
    int relearnEvents() const { return _relearnEvents; }

  private:
    DejaVuController &_controller;
    bool _autoRelearn;
    int _unknownEvents = 0;
    int _interferenceEvents = 0;
    int _relearnEvents = 0;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_DEJAVU_POLICY_HH
