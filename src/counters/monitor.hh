/**
 * @file
 * The DejaVu Monitor (§3.3): collects the workload-describing metrics
 * periodically or on demand, normalizing raw counts by the sampling
 * duration so signatures generalize "regardless of how long the
 * sampling takes".
 *
 * The Monitor observes the *profiling clone*, not production: the
 * proxy mirrors a fixed session-sampled fraction of client traffic to
 * a dedicated profiling host of fixed capacity. This is what makes the
 * measured metrics (a) immune to co-located-tenant interference and
 * (b) comparable across time — the two Monitor design requirements
 * ("Isolation", "Non-intrusive monitoring") of §3.3.
 */

#ifndef DEJAVU_COUNTERS_MONITOR_HH
#define DEJAVU_COUNTERS_MONITOR_HH

#include <string>
#include <vector>

#include "common/sim_time.hh"
#include "counters/counter_model.hh"
#include "counters/metric_sample.hh"
#include "services/service.hh"

namespace dejavu {

/**
 * Collects metric samples from the profiling environment.
 */
class Monitor
{
  public:
    struct Config
    {
        /** Wall time one signature collection takes (dominates
         *  DejaVu's ~10 s adaptation time, §4.1/Figure 8). */
        SimTime sampleDuration = seconds(10);
        /** Fraction of client traffic mirrored to the profiler
         *  (≈ one instance's share of a 10-instance service). */
        double mirrorFraction = 0.10;
        /** Profiling host capacity in ECU (Xeon X5472, 8 cores). */
        double profilerEcu = 8.0;
    };

    Monitor(Service &service, CounterModel model);
    Monitor(Service &service, CounterModel model, Config config);

    /**
     * Collect one normalized sample for the service's current
     * workload. Pure measurement: does not advance simulated time
     * (controllers account for sampleDuration when reacting).
     */
    MetricSample collect();

    /** Collect for an explicit workload (learning-phase replays). */
    MetricSample collect(const Workload &workload);

    /**
     * The *noise-free* expected sample for @p workload: the counter
     * model's deterministic response surface without measurement
     * noise. RNG-free and side-effect-free, so callers can predict
     * what a collection would measure (e.g. the work queue's
     * coalescing key) without disturbing subsequent real
     * collections.
     */
    MetricSample expectedSample(const Workload &workload) const;

    /** Time one collection occupies (used for adaptation latency). */
    SimTime sampleDuration() const { return _config.sampleDuration; }

    const Config &config() const { return _config; }

    /** Candidate metric count (= kNumHpcEvents). */
    static int metricCount() { return kNumHpcEvents; }

    /** Candidate metric names, index-aligned with MetricSample. */
    static std::vector<std::string> metricNames()
    { return allHpcEventNames(); }

  private:
    Service &_service;
    CounterModel _model;
    Config _config;
};

} // namespace dejavu

#endif // DEJAVU_COUNTERS_MONITOR_HH
