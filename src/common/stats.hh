/**
 * @file
 * Streaming statistics used throughout the simulator: running moments
 * (Welford), exact-percentile samplers, and time-weighted averages for
 * quantities like "number of instances deployed".
 */

#ifndef DEJAVU_COMMON_STATS_HH
#define DEJAVU_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.hh"

namespace dejavu {

/**
 * Numerically stable running mean/variance/min/max (Welford's method).
 */
class RunningStats
{
  public:
    /** Fold one observation into the summary. */
    void add(double x);

    /** Reset to the empty state. */
    void clear();

    std::size_t count() const { return _n; }
    double mean() const { return _n ? _mean : 0.0; }
    /** Population variance; 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    /** Standard error of the mean; 0 for fewer than two samples. */
    double stderror() const;
    double min() const { return _n ? _min : 0.0; }
    double max() const { return _n ? _max : 0.0; }
    double sum() const { return _n ? _mean * _n : 0.0; }

  private:
    std::size_t _n = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Keeps every sample so that exact quantiles can be extracted.
 *
 * The evaluation needs true percentiles (e.g. SPECweb QoS = fraction of
 * downloads meeting a rate; 95th-percentile interference selection);
 * sample counts are small enough that exactness is affordable.
 */
class PercentileSampler
{
  public:
    void add(double x) { _samples.push_back(x); _sorted = false; }
    void clear() { _samples.clear(); _sorted = false; }

    std::size_t count() const { return _samples.size(); }

    /** q in [0,1]; linear interpolation between order statistics. */
    double quantile(double q) const;

    /** Fraction of samples strictly above the threshold. */
    double fractionAbove(double threshold) const;

    /** Fraction of samples at or below the threshold. */
    double fractionAtOrBelow(double threshold) const;

    double mean() const;

    const std::vector<double> &samples() const { return _samples; }

  private:
    mutable std::vector<double> _samples;
    mutable bool _sorted = false;

    void ensureSorted() const;
};

/**
 * Time-weighted average of a piecewise-constant signal, e.g. the
 * instance count over a multi-day run (used for cost accounting).
 */
class TimeWeightedValue
{
  public:
    /** Record that the signal changed to @p value at time @p now. */
    void set(SimTime now, double value);

    /** Close the window at @p now and return the time average. */
    double average(SimTime now) const;

    /** Integral of the signal over time, in value * seconds. */
    double integralSeconds(SimTime now) const;

    double current() const { return _value; }
    SimTime since() const { return _start; }

  private:
    SimTime _start = 0;
    SimTime _last = 0;
    double _value = 0.0;
    double _area = 0.0;   // value * microseconds accumulated
    bool _started = false;
};

/**
 * Peak resident set size of this process, in bytes: VmHWM from
 * /proc/self/status where /proc exists (so resetPeakRss() applies),
 * getrusage's process-lifetime maximum otherwise, and 0 on platforms
 * with neither. The scale benches report this next to events/s so
 * memory regressions show up in the same table as throughput
 * regressions.
 */
std::uint64_t peakRssBytes();

/**
 * Restart the peak-RSS high-water mark at the current RSS (writes 5
 * to /proc/self/clear_refs), so the next peakRssBytes() covers only
 * what ran in between — one bench cell, not every cell so far.
 * @return false where /proc is unavailable (the peak then stays the
 *         process-lifetime maximum).
 */
bool resetPeakRss();

/**
 * Monotonic host time in nanoseconds (CLOCK_MONOTONIC; an arbitrary
 * epoch — only differences are meaningful). This is the serving
 * path's latency clock: dejavud sessions stamp a request on arrival
 * and compare the elapsed time against the p99 budget, and the
 * serving bench derives its percentile tables from it. Deliberately
 * the only sanctioned wall-clock read outside the bench wall-time
 * helpers (the determinism linter pins every clock to common/stats);
 * simulated time still comes exclusively from the EventQueue.
 */
std::uint64_t monotonicNanos();

} // namespace dejavu

#endif // DEJAVU_COMMON_STATS_HH
