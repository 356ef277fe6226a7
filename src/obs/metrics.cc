#include "obs/metrics.hh"

#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace dejavu {
namespace obs {

namespace {

/** Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
 *  dotted paths map dots, dashes and slashes to underscores. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

} // namespace

MetricsRegistry::Entry &
MetricsRegistry::entry(const std::string &name, Kind kind)
{
    const auto it = _entries.find(name);
    if (it != _entries.end()) {
        DEJAVU_ASSERT(it->second.kind == kind, "metric ", name,
                      " re-registered as a different kind");
        return it->second;
    }
    Entry fresh;
    fresh.kind = kind;
    switch (kind) {
    case Kind::Counter:
        _counters.emplace_back();
        fresh.counter = &_counters.back();
        break;
    case Kind::Gauge:
        _gauges.emplace_back();
        fresh.gauge = &_gauges.back();
        break;
    case Kind::Histogram:
        _histograms.emplace_back();
        fresh.histogram = &_histograms.back();
        break;
    }
    return _entries.emplace(name, fresh).first->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(_mu);
    return *entry(name, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(_mu);
    return *entry(name, Kind::Gauge).gauge;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock lock(_mu);
    return *entry(name, Kind::Histogram).histogram;
}

void
MetricsRegistry::writeKv(std::ostream &os) const
{
    MutexLock lock(_mu);
    for (const auto &[name, e] : _entries) {
        switch (e.kind) {
        case Kind::Counter:
            os << name << ' ' << e.counter->value() << '\n';
            break;
        case Kind::Gauge:
            os << name << ' ' << e.gauge->value() << '\n';
            break;
        case Kind::Histogram: {
            const LatencyHistogram &h = *e.histogram;
            const auto p50 = h.quantileBoundsNanos(0.50);
            const auto p99 = h.quantileBoundsNanos(0.99);
            // `_lo` before the upper bound keeps the dump strictly
            // sorted by line ("_p50_lo_ns" < "_p50_ns").
            os << name << "_count " << h.count() << '\n';
            os << name << "_p50_lo_ns " << p50.lower << '\n';
            os << name << "_p50_ns " << p50.upper << '\n';
            os << name << "_p99_lo_ns " << p99.lower << '\n';
            os << name << "_p99_ns " << p99.upper << '\n';
            break;
        }
        }
    }
}

std::string
MetricsRegistry::kv() const
{
    std::ostringstream os;
    writeKv(os);
    return os.str();
}

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    MutexLock lock(_mu);
    for (const auto &[name, e] : _entries) {
        const std::string pn = promName(name);
        switch (e.kind) {
        case Kind::Counter:
            os << "# TYPE " << pn << " counter\n";
            os << pn << ' ' << e.counter->value() << '\n';
            break;
        case Kind::Gauge:
            os << "# TYPE " << pn << " gauge\n";
            os << pn << ' ' << e.gauge->value() << '\n';
            break;
        case Kind::Histogram: {
            const LatencyHistogram &h = *e.histogram;
            os << "# TYPE " << pn << " histogram\n";
            int top = -1;
            for (int b = 0; b < LatencyHistogram::kBuckets; ++b)
                if (h.bucketCount(b) > 0)
                    top = b;
            std::uint64_t cum = 0;
            for (int b = 0; b <= top; ++b) {
                cum += h.bucketCount(b);
                // le is the bucket's inclusive upper bound, in
                // seconds per Prometheus latency convention.
                os << pn << "_bucket{le=\""
                   << static_cast<double>(
                          LatencyHistogram::upperBound(b)) /
                          1e9
                   << "\"} " << cum << '\n';
            }
            os << pn << "_bucket{le=\"+Inf\"} " << cum << '\n';
            os << pn << "_sum "
               << static_cast<double>(h.sumNanos()) / 1e9 << '\n';
            os << pn << "_count " << cum << '\n';
            break;
        }
        }
    }
}

} // namespace obs
} // namespace dejavu
