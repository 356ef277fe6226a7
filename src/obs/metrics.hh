/**
 * @file
 * MetricsRegistry: a named handle space of counters, gauges and
 * latency histograms. Hot paths hold a reference (registration is the
 * only name lookup) and do one relaxed `fetch_add`, never a lock.
 *
 * The serving daemon's counters (serving::Metrics) live here, and
 * bench_fleet_tails publishes a fleet cell's summary into one for
 * `--metrics-out`. The sim summaries and the profiling work-queue
 * `Stats` are still their own structs.
 *
 * Naming convention: dotted lower-case paths, domain first —
 * `serving.samples`, `profiling.slots.signature`, `fleet.adaptations`,
 * `sim.events`. Two writers render the registry:
 *
 *  - writeKv(): `name value` lines sorted by name — the format
 *    `dejavud --report` prints and `tools/dejavu_top` pretty-prints.
 *  - writePrometheus(): Prometheus text exposition (names sanitized
 *    to `[a-z0-9_]`, histograms as cumulative `_bucket{le="…"}`
 *    series in seconds) — served by `dejavud --metrics` and dumped
 *    by benches via `--metrics-out`.
 *
 * Thread safety: registration locks; registered handles are
 * address-stable for the registry's lifetime and wait-free to
 * update. Readers (the writers above) take relaxed snapshots —
 * monitoring-grade consistency, not exactness across a racing
 * increment.
 */

#ifndef DEJAVU_OBS_METRICS_HH
#define DEJAVU_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>

#include "common/thread_annotations.hh"

namespace dejavu {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        _v.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return _v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _v{0};
};

/** Last-write-wins sampled value (occupancy, rates, sizes). */
class Gauge
{
  public:
    void set(double v) { _v.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return _v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> _v{0.0};
};

/**
 * Power-of-two latency histogram: bucket b counts samples with
 * floor(log2(nanos)) == b (bucket 0 also takes 0 ns). Concurrent
 * record() calls are relaxed atomic increments; readers see a
 * consistent-enough view for monitoring.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 64;

    /** Inclusive [lower, upper] nanos range of one bucket. */
    struct Bounds
    {
        std::uint64_t lower = 0;
        std::uint64_t upper = 0;
    };

    void record(std::uint64_t nanos)
    {
        _buckets[bucketOf(nanos)].fetch_add(
            1, std::memory_order_relaxed);
        _sum.fetch_add(nanos, std::memory_order_relaxed);
    }

    std::uint64_t count() const
    {
        std::uint64_t total = 0;
        for (const auto &b : _buckets)
            total += b.load(std::memory_order_relaxed);
        return total;
    }

    /** Sum of recorded nanos (for averages / Prometheus `_sum`). */
    std::uint64_t sumNanos() const
    {
        return _sum.load(std::memory_order_relaxed);
    }

    /**
     * Upper bound of the bucket holding the q-th sample (q in
     * [0,1]); 0 when empty. Conservative: the true quantile is at
     * most this.
     */
    std::uint64_t quantileNanos(double q) const
    {
        return quantileBoundsNanos(q).upper;
    }

    /**
     * Both edges of the bucket holding the q-th sample — the
     * honest answer a power-of-two histogram can give: the true
     * quantile lies in [lower, upper]. {0, 0} when empty.
     */
    Bounds quantileBoundsNanos(double q) const
    {
        const std::uint64_t total = count();
        if (total == 0)
            return Bounds{};
        std::uint64_t rank = static_cast<std::uint64_t>(
            q * static_cast<double>(total - 1));
        for (int b = 0; b < kBuckets; ++b) {
            const std::uint64_t n =
                _buckets[static_cast<std::size_t>(b)].load(
                    std::memory_order_relaxed);
            if (rank < n)
                return Bounds{lowerBound(b), upperBound(b)};
            rank -= n;
        }
        return Bounds{lowerBound(kBuckets - 1),
                      upperBound(kBuckets - 1)};
    }

    /** Per-bucket count (for the Prometheus cumulative series). */
    std::uint64_t bucketCount(int bucket) const
    {
        return _buckets[static_cast<std::size_t>(bucket)].load(
            std::memory_order_relaxed);
    }

    static std::uint64_t lowerBound(int bucket)
    {
        return bucket == 0 ? 0
                           : std::uint64_t{1}
                                 << static_cast<unsigned>(bucket);
    }

    static std::uint64_t upperBound(int bucket)
    {
        if (bucket >= 63)
            return ~std::uint64_t{0};
        return (std::uint64_t{2} << static_cast<unsigned>(bucket)) -
               1;
    }

  private:
    static int bucketOf(std::uint64_t nanos)
    {
        if (nanos == 0)
            return 0;
        int b = 0;
        while (nanos >>= 1)
            ++b;
        return b;
    }

    std::array<std::atomic<std::uint64_t>, kBuckets> _buckets{};
    std::atomic<std::uint64_t> _sum{0};
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Find-or-create; the returned reference stays valid and
     *  wait-free for the registry's lifetime. Fatal if @p name is
     *  already registered as a different metric kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    /** Convenience: `gauge(name).set(v)`. */
    void setGauge(const std::string &name, double v)
    {
        gauge(name).set(v);
    }

    /** `name value` lines sorted by name; histograms expand to
     *  `_count`, `_p50_lo_ns`/`_p50_ns`, `_p99_lo_ns`/`_p99_ns`
     *  (lower / upper bucket bounds — see quantileBoundsNanos). */
    void writeKv(std::ostream &os) const;
    std::string kv() const;

    /** Prometheus text exposition format, sorted by name. */
    void writePrometheus(std::ostream &os) const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Histogram
    };

    struct Entry
    {
        Kind kind = Kind::Counter;
        obs::Counter *counter = nullptr;
        obs::Gauge *gauge = nullptr;
        obs::LatencyHistogram *histogram = nullptr;
    };

    Entry &entry(const std::string &name, Kind kind)
        REQUIRES(_mu);

    mutable Mutex _mu;
    std::map<std::string, Entry> _entries GUARDED_BY(_mu);
    // deques: stable addresses for handles while the index grows.
    std::deque<obs::Counter> _counters GUARDED_BY(_mu);
    std::deque<obs::Gauge> _gauges GUARDED_BY(_mu);
    std::deque<obs::LatencyHistogram> _histograms GUARDED_BY(_mu);
};

} // namespace obs
} // namespace dejavu

#endif // DEJAVU_OBS_METRICS_HH
