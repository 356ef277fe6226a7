#include "baselines/rightscale.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace dejavu {

RightScalePolicy::RightScalePolicy(Service &service, Rng rng,
                                   Config config)
    : ProvisioningPolicy(service), _config(config), _rng(rng)
{
    DEJAVU_ASSERT(_config.scaleUpThreshold > _config.scaleDownThreshold,
                  "thresholds inverted");
    DEJAVU_ASSERT(_config.growStep >= 1 && _config.shrinkStep >= 1,
                  "bad steps");
}

int
RightScalePolicy::vote(double utilization)
{
    // Each running VM reports its own (noisy) utilization; balanced
    // load means they hover around the service-wide value.
    const int voters =
        std::max(1, _service.cluster().runningInstances());
    int upVotes = 0, downVotes = 0;
    for (int v = 0; v < voters; ++v) {
        const double u =
            utilization * (1.0 + _config.voteNoise * _rng.gaussian());
        if (u > _config.scaleUpThreshold)
            ++upVotes;
        else if (u < _config.scaleDownThreshold)
            ++downVotes;
    }
    const double needed = _config.voteMajority * voters;
    if (upVotes > needed)
        return _config.growStep;
    if (downVotes > needed)
        return -_config.shrinkStep;
    return 0;
}

void
RightScalePolicy::onWorkloadChange(const Workload &workload)
{
    (void)workload;
    // RightScale does not react to the change itself — only to the
    // utilization its monitoring observes afterwards.
    if (_adaptationOpen)
        closeAdaptationWindow();
    _changeAt = _service.queue().now();
    _firstResizeAt = -1;
    _lastResponseResizeAt = -1;
    _resizesSinceChange = 0;
    _adaptationOpen = true;
}

void
RightScalePolicy::closeAdaptationWindow()
{
    if (!_adaptationOpen)
        return;
    _adaptationOpen = false;
    if (_resizesSinceChange == 0) {
        // No resize was needed: the previous allocation still fits.
        recordAdaptation(0);
    } else if (_resizesSinceChange == 1) {
        // "When a single resize operation is sufficient ... we record
        // an instantaneous adaptation time (zero seconds)." (§4.1)
        recordAdaptation(0);
    } else {
        recordAdaptation(_lastResponseResizeAt - _firstResizeAt);
    }
}

void
RightScalePolicy::onMonitorTick(const Service::PerfSample &sample)
{
    const SimTime now = _service.queue().now();
    if (_lastResizeAt >= 0 &&
        now - _lastResizeAt < _config.resizeCalmTime)
        return;  // calm window: must observe the reconfigured service

    const int step = vote(sample.utilization);
    if (step == 0) {
        // Stable: if an adaptation episode was in flight, it is over.
        if (_adaptationOpen && _resizesSinceChange > 0)
            closeAdaptationWindow();
        return;
    }

    const int current = _service.cluster().target().instances;
    const int target = std::clamp(current + step,
                                  _config.minInstances,
                                  _config.maxInstances);
    if (target == current) {
        if (_adaptationOpen)
            closeAdaptationWindow();
        return;  // pinned at a bound
    }
    deployNow({target, _service.cluster().target().type});
    _lastResizeAt = now;
    if (_adaptationOpen) {
        if (_resizesSinceChange == 0)
            _firstResizeAt = now;
        _lastResponseResizeAt = now;
        ++_resizesSinceChange;
    }
}

} // namespace dejavu
