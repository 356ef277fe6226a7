/**
 * @file
 * Load traces: normalized per-hour load levels over multiple days.
 *
 * The paper drives its evaluation with HotMail and Windows Live
 * Messenger production traces (Sept 7–13, 2009; 1-hour granularity,
 * normalized; §4 "Workload traces"). We model a trace as a sequence of
 * hourly samples in [0, 1] that callers scale to client counts so
 * that the trace peak maps onto the service's full-capacity point.
 */

#ifndef DEJAVU_WORKLOAD_TRACE_HH
#define DEJAVU_WORKLOAD_TRACE_HH

#include <string>
#include <vector>

#include "common/sim_time.hh"

namespace dejavu {

/**
 * A normalized, hourly-sampled, multi-day load trace.
 */
class LoadTrace
{
  public:
    LoadTrace() = default;

    /** Build from hourly samples; normalizes so the max becomes 1. */
    LoadTrace(std::string name, std::vector<double> hourlyLoad);

    const std::string &name() const { return _name; }

    /** Number of hourly samples. */
    std::size_t hours() const { return _load.size(); }

    /** Whole days covered (rounded down). */
    int daysCovered() const { return static_cast<int>(hours() / 24); }

    /** Normalized load of hour index @p h (clamped to last sample). */
    double at(std::size_t h) const;

    /** Normalized load at a simulated time (piecewise constant). */
    double atTime(SimTime t) const;

    /** Normalized load for (day, hourOfDay), both 0-based. */
    double at(int day, int hour) const;

    /** All samples. */
    const std::vector<double> &samples() const { return _load; }

  private:
    std::string _name;
    std::vector<double> _load;
};

} // namespace dejavu

#endif // DEJAVU_WORKLOAD_TRACE_HH
