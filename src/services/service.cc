#include "services/service.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace dejavu {

Service::Service(EventQueue &queue, Cluster &cluster, Rng rng)
    : Service(queue, cluster, rng, ClientEmulator::Config())
{
}

Service::Service(EventQueue &queue, Cluster &cluster, Rng rng,
                 ClientEmulator::Config clientConfig)
    : _queue(queue), _cluster(cluster), _rng(rng),
      _clients(clientConfig, _rng.fork())
{
}

void
Service::setWorkload(const Workload &workload)
{
    DEJAVU_ASSERT(workload.clients >= 0.0, "negative client count");
    _workload = workload;
    _capacityPerEcu = capacityPerEcu(_workload.mix);
    _baseLatencyMs = baseLatencyMs(_workload.mix);
}

double
Service::offeredRate() const
{
    return _clients.offeredRate(_workload.clients);
}

double
Service::effectiveCapacity() const
{
    const double ecu = _cluster.effectiveComputeUnits();
    return ecu * capacityPerEcu(_workload.mix) * transientFactor();
}

double
Service::utilization() const
{
    return PerfModel::utilization(offeredRate(), effectiveCapacity());
}

double
Service::meanLatencyMs() const
{
    return PerfModel::meanLatencyMs(baseLatencyMs(_workload.mix),
                                    utilization(), _perfParams);
}

Service::PerfSample
Service::sample()
{
    PerfSample s;
    s.offeredRate = offeredRate();
    // effectiveCapacity()'s product, in its order, with the hook
    // value of this workload; transients move with time, so every
    // sample reads them.
    const double capacity = _cluster.effectiveComputeUnits()
        * _capacityPerEcu * transientFactor();
    s.utilization = PerfModel::utilization(s.offeredRate, capacity);
    const std::uint64_t rhoBits = bitsOf(s.utilization);
    const std::uint64_t baseBits = bitsOf(_baseLatencyMs);
    if (rhoBits != _memoRhoBits || baseBits != _memoBaseBits) {
        _memoRhoBits = rhoBits;
        _memoBaseBits = baseBits;
        _memoLatencyMs = PerfModel::meanLatencyMs(
            _baseLatencyMs, s.utilization, _perfParams);
        _memoQosPercent = qosPercentAt(s.utilization);
    }
    s.meanLatencyMs = std::max(
        0.1,
        _memoLatencyMs * (1.0 + _measurementNoise * _rng.gaussian()));
    s.qosPercent = std::clamp(
        _memoQosPercent + 0.3 * _rng.gaussian(), 0.0, 100.0);
    return s;
}

double
Service::hypotheticalUtilization(const Workload &workload,
                                 const ResourceAllocation &allocation,
                                 double interference) const
{
    DEJAVU_ASSERT(interference >= 0.0 && interference < 1.0,
                  "interference fraction out of range");
    const double rate = _clients.offeredRate(workload.clients);
    const double capacity = allocation.computeUnits()
        * (1.0 - interference) * capacityPerEcu(workload.mix);
    return PerfModel::utilization(rate, capacity);
}

double
Service::hypotheticalLatencyMs(const Workload &workload,
                               const ResourceAllocation &allocation,
                               double interference) const
{
    const double rho =
        hypotheticalUtilization(workload, allocation, interference);
    return PerfModel::meanLatencyMs(baseLatencyMs(workload.mix), rho,
                                    _perfParams);
}

double
Service::hypotheticalQosPercent(const Workload &workload,
                                const ResourceAllocation &allocation,
                                double interference) const
{
    return qosPercentAt(
        hypotheticalUtilization(workload, allocation, interference));
}

} // namespace dejavu
