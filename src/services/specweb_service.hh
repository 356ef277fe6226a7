/**
 * @file
 * SPECweb2009-like multi-tier web service model.
 *
 * The scale-up case study (§4.2) monitors SPECweb with 5 front-end and
 * 5 back-end instances whose *type* toggles between large and
 * extra-large. The benchmark's three workloads are banking,
 * e-commerce and support; support (used in Figures 9/10) is
 * I/O-intensive, read-only, and scored by QoS: at least 95% of
 * downloads must sustain 0.99 Mbps.
 */

#ifndef DEJAVU_SERVICES_SPECWEB_SERVICE_HH
#define DEJAVU_SERVICES_SPECWEB_SERVICE_HH

#include "services/service.hh"

namespace dejavu {

/**
 * SPECweb2009 stand-in. The cluster's VMs represent front+back tier
 * pairs; the instance count stays fixed while the type scales.
 */
class SpecWebService : public Service
{
  public:
    struct Config
    {
        /** Sessions-per-second capacity of one ECU for static reads. */
        double staticCapacityPerEcu = 40.0;
        /** Dynamic content costs more CPU per request. */
        double dynamicCostFactor = 2.2;
        /** No-load response time (ms). */
        double baseLatencyMs = 35.0;
        /** Utilization knee above which downloads start missing the
         *  0.99 Mbps floor. */
        double qosKnee = 0.82;
    };

    SpecWebService(EventQueue &queue, Cluster &cluster, Rng rng);
    SpecWebService(EventQueue &queue, Cluster &cluster, Rng rng,
                   Config config);

    std::string name() const override { return "specweb2009"; }
    ServiceKind kind() const override { return ServiceKind::SpecWeb; }

    double capacityPerEcu(const RequestMix &mix) const override;
    double baseLatencyMs(const RequestMix &mix) const override;
    double qosPercentAt(double rho) const override;

    /** Scale-up profiling replays both instance types (§4.2), so the
     *  proxy occupies the shared host longer than a scale-out store. */
    SimTime profilingSlotHint() const override { return seconds(15); }

    const Config &config() const { return _config; }

  private:
    Config _config;
};

} // namespace dejavu

#endif // DEJAVU_SERVICES_SPECWEB_SERVICE_HH
