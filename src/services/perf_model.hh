/**
 * @file
 * The queueing core shared by every service model.
 *
 * We approximate each service as a processor-sharing queue: with
 * offered rate λ against effective capacity C, utilization ρ = λ/C and
 *
 *     meanLatency(ρ) = S0 * (1 + ρ^k / (1 - ρ))        for ρ < ρcap
 *
 * clipped smoothly at saturation. The exact functional form is not
 * important to the paper's conclusions; what matters — and what this
 * reproduces — is a latency curve that is flat at low load and turns
 * sharply upward near a knee, so that a *minimal adequate allocation*
 * exists for every workload and under-provisioning is immediately
 * visible (paper Figures 1, 6c, 7c, 11a).
 */

#ifndef DEJAVU_SERVICES_PERF_MODEL_HH
#define DEJAVU_SERVICES_PERF_MODEL_HH

#include "common/logging.hh"

namespace dejavu {

/**
 * Stateless latency/QoS curves.
 */
class PerfModel
{
  public:
    /** Shape parameters. */
    struct Params
    {
        double kneeExponent = 2.0;   ///< k in ρ^k/(1-ρ).
        double maxUtilization = 0.98;///< ρ beyond this is saturated.
        double saturationCapMs = 2000.0; ///< Latency ceiling.
    };

    /** Utilization from rate and capacity (capacity 0 => saturated). */
    static double utilization(double rate, double capacity)
    {
        DEJAVU_ASSERT(rate >= 0.0, "negative rate");
        DEJAVU_ASSERT(capacity >= 0.0, "negative capacity");
        if (capacity <= 0.0)
            return 10.0;  // fully saturated sentinel
        return rate / capacity;
    }

    /** Mean latency in ms from base latency and utilization. */
    static double meanLatencyMs(double baseMs, double rho);
    static double meanLatencyMs(double baseMs, double rho,
                                const Params &params);

    /**
     * QoS percentage (SPECweb-style: share of downloads meeting the
     * minimum bit rate). ~99.5% below the knee; degrades polynomially
     * once ρ exceeds kneeRho; floored at 50%.
     */
    static double qosPercent(double rho, double kneeRho = 0.82);

  private:
    PerfModel() = delete;
};

} // namespace dejavu

#endif // DEJAVU_SERVICES_PERF_MODEL_HH
