#include "services/service.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace dejavu {

const char *
serviceKindName(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::KeyValue:
        return "keyvalue";
      case ServiceKind::SpecWeb:
        return "specweb";
      case ServiceKind::Rubis:
        return "rubis";
      case ServiceKind::Generic:
        return "generic";
      case ServiceKind::Ycsb:
        return "ycsb";
    }
    fatal("unknown service kind: ", static_cast<int>(kind));
}

ServiceKind
serviceKindFromName(const std::string &name)
{
    if (name == "keyvalue")
        return ServiceKind::KeyValue;
    if (name == "specweb")
        return ServiceKind::SpecWeb;
    if (name == "rubis")
        return ServiceKind::Rubis;
    if (name == "generic")
        return ServiceKind::Generic;
    if (name == "ycsb")
        return ServiceKind::Ycsb;
    fatal("unknown service kind name: ", name,
          " (use keyvalue|specweb|rubis|generic|ycsb)");
}

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
    s.utilization =
        PerfModel::utilization(s.offeredRate, effectiveCapacity());
    const double latency = PerfModel::meanLatencyMs(
        baseLatencyMs(_workload.mix), s.utilization, _perfParams);
    const double qos = qosPercentAt(s.utilization);
    s.meanLatencyMs = std::max(
        0.1, latency * (1.0 + _measurementNoise * _rng.gaussian()));
    s.qosPercent = std::clamp(
        qos + 0.3 * _rng.gaussian(), 0.0, 100.0);
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
    const double rho =
        hypotheticalUtilization(workload, allocation, interference);
    return PerfModel::qosPercent(rho);
}

} // namespace dejavu
