#include "services/perf_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dejavu {

double
PerfModel::meanLatencyMs(double baseMs, double rho)
{
    return meanLatencyMs(baseMs, rho, Params());
}

double
PerfModel::meanLatencyMs(double baseMs, double rho, const Params &params)
{
    DEJAVU_ASSERT(baseMs > 0.0, "base latency must be positive");
    DEJAVU_ASSERT(rho >= 0.0, "negative utilization");
    const double capped = std::min(rho, params.maxUtilization);
    const double queueing =
        std::pow(capped, params.kneeExponent) / (1.0 - capped);
    double latency = baseMs * (1.0 + queueing);
    if (rho > params.maxUtilization) {
        // Past saturation the queue grows without bound; we model the
        // monitoring-window view as a steep overload ramp.
        latency += baseMs * 50.0 * (rho - params.maxUtilization);
    }
    return std::min(latency, params.saturationCapMs);
}

double
PerfModel::qosPercent(double rho, double kneeRho)
{
    DEJAVU_ASSERT(rho >= 0.0, "negative utilization");
    const double healthy = 99.5;
    if (rho <= kneeRho)
        return healthy;
    const double deficit = rho - kneeRho;
    const double drop = 120.0 * std::pow(deficit, 1.4);
    return std::max(50.0, healthy - drop);
}

} // namespace dejavu
