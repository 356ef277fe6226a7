#include "services/specweb_service.hh"

#include "common/logging.hh"

namespace dejavu {

SpecWebService::SpecWebService(EventQueue &queue, Cluster &cluster,
                               Rng rng)
    : SpecWebService(queue, cluster, rng, Config())
{
}

SpecWebService::SpecWebService(EventQueue &queue, Cluster &cluster,
                               Rng rng, Config config)
    : Service(queue, cluster, rng), _config(config)
{
    DEJAVU_ASSERT(_config.staticCapacityPerEcu > 0.0, "bad capacity");
    DEJAVU_ASSERT(_config.dynamicCostFactor >= 1.0, "bad cost factor");
}

double
SpecWebService::capacityPerEcu(const RequestMix &mix) const
{
    const double dynamicFraction = 1.0 - mix.staticFraction;
    const double relativeCost = mix.staticFraction
        + dynamicFraction * _config.dynamicCostFactor;
    // I/O-heavy mixes (support's large downloads) are bounded by the
    // instance's I/O units, which scale with ECU in our instance
    // catalog; an ioWeight above 1 costs proportionally.
    const double ioPenalty = 1.0 + 0.25 * (mix.ioWeight - 1.0);
    return _config.staticCapacityPerEcu / (relativeCost * ioPenalty);
}

double
SpecWebService::baseLatencyMs(const RequestMix &mix) const
{
    // Dynamic content adds server think time.
    const double dynamicFraction = 1.0 - mix.staticFraction;
    return _config.baseLatencyMs * (1.0 + 0.6 * dynamicFraction);
}

double
SpecWebService::qosPercentAt(double rho) const
{
    return PerfModel::qosPercent(rho, _config.qosKnee);
}

} // namespace dejavu
