/**
 * @file
 * RightScale-like autoscaler, reproduced "based on publicly available
 * information" exactly as the paper did (§4.1): virtual instances
 * run an agreement protocol on their utilization; if the majority
 * report utilization above the scale-up threshold the cluster grows
 * (by two instances by default), if they agree it is below the
 * scale-down threshold it shrinks (by one by default); consecutive
 * resize actions are separated by the "resize calm time" (3 or 15
 * minutes in Figure 8), which "cannot be eliminated ... RightScale
 * has to first observe the reconfigured service before it can take
 * any other resizing action".
 */

#ifndef DEJAVU_BASELINES_RIGHTSCALE_HH
#define DEJAVU_BASELINES_RIGHTSCALE_HH

#include "baselines/policy.hh"
#include "common/random.hh"

namespace dejavu {

/**
 * Threshold-voting additive autoscaler.
 */
class RightScalePolicy : public ProvisioningPolicy
{
  public:
    struct Config
    {
        double scaleUpThreshold = 0.80;   ///< Per-VM utilization vote.
        double scaleDownThreshold = 0.40;
        double voteMajority = 0.5;        ///< Fraction needed to act.
        int growStep = 2;                 ///< RightScale default.
        int shrinkStep = 1;               ///< RightScale default.
        SimTime resizeCalmTime = minutes(15);
        int maxInstances = 10;
        int minInstances = 1;
        /** Per-VM utilization measurement noise (std-dev). */
        double voteNoise = 0.03;
    };

    RightScalePolicy(Service &service, Rng rng, Config config);

    std::string name() const override { return "rightscale"; }

    void onWorkloadChange(const Workload &workload) override;
    void onMonitorTick(const Service::PerfSample &sample) override;

    const Config &config() const { return _config; }
    int resizesSinceLastChange() const { return _resizesSinceChange; }

  private:
    Config _config;
    Rng _rng;

    SimTime _lastResizeAt = -1;
    SimTime _changeAt = -1;
    SimTime _firstResizeAt = -1;
    SimTime _lastResponseResizeAt = -1;
    int _resizesSinceChange = 0;
    bool _adaptationOpen = false;

    /** Run the voting protocol once; returns the step (+/-/0). */
    int vote(double utilization);

    void closeAdaptationWindow();
};

} // namespace dejavu

#endif // DEJAVU_BASELINES_RIGHTSCALE_HH
