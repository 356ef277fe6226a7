/**
 * @file
 * Abstract network-service model.
 *
 * A Service binds a Cluster (the virtualized resources) to a workload
 * (mix + client population) and exposes the two observables every
 * controller in the paper consumes: mean response latency and QoS
 * percentage. It also exposes *hypothetical* evaluation — "what would
 * latency be under allocation A, workload W, interference i?" — which
 * is the substrate for the Tuner's sandboxed experiments and for the
 * DejaVu profiler's isolated measurements (§3.2.2, §3.4).
 */

#ifndef DEJAVU_SERVICES_SERVICE_HH
#define DEJAVU_SERVICES_SERVICE_HH

#include <string>

#include "common/random.hh"
#include "common/sim_time.hh"
#include "services/perf_model.hh"
#include "services/slo.hh"
#include "sim/allocation.hh"
#include "sim/cluster.hh"
#include "workload/client_emulator.hh"
#include "workload/request_mix.hh"

namespace dejavu {

class EventQueue;

/** Coarse service family; the counter simulator keys its response
 *  surfaces on this (different services stress different units). */
enum class ServiceKind { KeyValue, SpecWeb, Rubis, Generic, Ycsb };

/** Stable lowercase name of a service kind ("keyvalue" | "specweb" |
 *  "rubis" | "generic" | "ycsb") — the kind column of repository CSVs
 *  and the namespace label of shared-repository reports. */
const char *serviceKindName(ServiceKind kind);

/** Parse a name produced by serviceKindName(); fatal() otherwise. */
ServiceKind serviceKindFromName(const std::string &name);

/**
 * Base class for Cassandra-, SPECweb- and RUBiS-like service models.
 */
class Service
{
  public:
    /** One production measurement (what a monitor reports). */
    struct PerfSample
    {
        double meanLatencyMs = 0.0;
        double qosPercent = 100.0;
        double utilization = 0.0;
        double offeredRate = 0.0;
    };

    Service(EventQueue &queue, Cluster &cluster, Rng rng);
    Service(EventQueue &queue, Cluster &cluster, Rng rng,
            ClientEmulator::Config clientConfig);
    virtual ~Service() = default;

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Service name for logs and figures. */
    virtual std::string name() const = 0;

    /** Service family (drives the counter response model). */
    virtual ServiceKind kind() const { return ServiceKind::Generic; }

    /** @name Workload control @{ */
    void setWorkload(const Workload &workload);
    const Workload &workload() const { return _workload; }
    /** Mean offered request rate implied by the client population. */
    double offeredRate() const;
    /** @} */

    /** @name Model hooks implemented by concrete services @{ */
    /** Request-serving capacity (req/s) of one ECU under @p mix. */
    virtual double capacityPerEcu(const RequestMix &mix) const = 0;
    /** No-load response time in ms under @p mix. */
    virtual double baseLatencyMs(const RequestMix &mix) const = 0;
    /** Capacity multiplier during reconfiguration transients. */
    virtual double transientFactor() const { return 1.0; }
    /** QoS percentage at utilization @p rho (default knee 0.82). */
    virtual double qosPercentAt(double rho) const
    { return PerfModel::qosPercent(rho); }
    /** Called by the harness right after the cluster was reconfigured. */
    virtual void onReconfigure() {}
    /**
     * Time the shared DejaVu profiler needs this service's proxy
     * replay to produce a stable signature (§3.3 host occupancy per
     * adaptation). Service families differ: a wider search space or
     * more tiers means a longer replay. Fleet builders use this as
     * the default profiling-slot duration — the quantity a
     * shortest-job-first slot scheduler sorts by.
     */
    virtual SimTime profilingSlotHint() const { return seconds(10); }
    /** @} */

    /** @name Production observables @{ */
    /** Effective service capacity right now (req/s). */
    double effectiveCapacity() const;
    double utilization() const;
    double meanLatencyMs() const;
    double qosPercent() const { return qosPercentAt(utilization()); }
    /**
     * Stochastic observation (advances the service's RNG). Evaluates
     * the operating point (rate, capacity, utilization) once and
     * derives latency and QoS from it; the noiseless parts equal the
     * observables above bit for bit.
     */
    PerfSample sample();
    /** @} */

    /** @name Hypothetical (sandbox / profiler) evaluation @{ */
    /**
     * Deterministic latency under (workload, allocation, interference)
     * with no transient effects — the steady state a sandboxed
     * experiment of sufficient length converges to.
     */
    double hypotheticalLatencyMs(const Workload &workload,
                                 const ResourceAllocation &allocation,
                                 double interference = 0.0) const;

    /** Same for the QoS metric. */
    double hypotheticalQosPercent(const Workload &workload,
                                  const ResourceAllocation &allocation,
                                  double interference = 0.0) const;

    /** Same for utilization. */
    double hypotheticalUtilization(const Workload &workload,
                                   const ResourceAllocation &allocation,
                                   double interference = 0.0) const;
    /** @} */

    Cluster &cluster() { return _cluster; }
    const Cluster &cluster() const { return _cluster; }
    EventQueue &queue() { return _queue; }
    const ClientEmulator &clients() const { return _clients; }

    /** Measurement noise level (relative std-dev of latency samples). */
    void setMeasurementNoise(double noise) { _measurementNoise = noise; }

  protected:
    EventQueue &_queue;
    Cluster &_cluster;
    Rng _rng;
    ClientEmulator _clients;
    Workload _workload;
    PerfModel::Params _perfParams;
    double _measurementNoise = 0.05;
};

} // namespace dejavu

#endif // DEJAVU_SERVICES_SERVICE_HH
