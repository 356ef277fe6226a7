/**
 * @file
 * One profiling observation (§3.3). The Monitor produces it, and the
 * signature schema, the decision kernel and the serving wire consume
 * it; they include this leaf header, not the counter stack.
 */

#ifndef DEJAVU_COUNTERS_METRIC_SAMPLE_HH
#define DEJAVU_COUNTERS_METRIC_SAMPLE_HH

#include <vector>

#include "common/sim_time.hh"

namespace dejavu {

/**
 * One profiling observation: all candidate metrics, already
 * normalized to per-second rates.
 */
struct MetricSample
{
    std::vector<double> values;  ///< Indexed like allHpcEvents().
    SimTime collectedAt = 0;
    double offeredRate = 0.0;    ///< Rate seen by the profiling host.
};

} // namespace dejavu

#endif // DEJAVU_COUNTERS_METRIC_SAMPLE_HH
