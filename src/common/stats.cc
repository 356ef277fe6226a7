#include "common/stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/logging.hh"

namespace dejavu {

void
RunningStats::add(double x)
{
    ++_n;
    if (_n == 1) {
        _mean = x;
        _m2 = 0.0;
        _min = _max = x;
        return;
    }
    const double delta = x - _mean;
    _mean += delta / _n;
    _m2 += delta * (x - _mean);
    _min = std::min(_min, x);
    _max = std::max(_max, x);
}

void
RunningStats::clear()
{
    *this = RunningStats();
}

double
RunningStats::variance() const
{
    if (_n < 2)
        return 0.0;
    return _m2 / _n;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::stderror() const
{
    if (_n < 2)
        return 0.0;
    return std::sqrt(_m2 / (_n - 1)) / std::sqrt(static_cast<double>(_n));
}

void
PercentileSampler::ensureSorted() const
{
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
}

double
PercentileSampler::quantile(double q) const
{
    DEJAVU_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (_samples.empty())
        return 0.0;
    ensureSorted();
    if (_samples.size() == 1)
        return _samples.front();
    const double pos = q * (_samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, _samples.size() - 1);
    const double frac = pos - lo;
    return _samples[lo] * (1.0 - frac) + _samples[hi] * frac;
}

double
PercentileSampler::fractionAbove(double threshold) const
{
    if (_samples.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(_samples.begin(), _samples.end(), threshold);
    return static_cast<double>(_samples.end() - it) / _samples.size();
}

double
PercentileSampler::fractionAtOrBelow(double threshold) const
{
    if (_samples.empty())
        return 0.0;
    return 1.0 - fractionAbove(threshold);
}

double
PercentileSampler::mean() const
{
    if (_samples.empty())
        return 0.0;
    double s = 0.0;
    for (double x : _samples)
        s += x;
    return s / _samples.size();
}

void
TimeWeightedValue::set(SimTime now, double value)
{
    if (!_started) {
        _start = _last = now;
        _value = value;
        _started = true;
        return;
    }
    DEJAVU_ASSERT(now >= _last, "TimeWeightedValue: time went backwards");
    _area += _value * static_cast<double>(now - _last);
    _last = now;
    _value = value;
}

double
TimeWeightedValue::average(SimTime now) const
{
    if (!_started || now <= _start)
        return _value;
    const double area = _area + _value * static_cast<double>(now - _last);
    return area / static_cast<double>(now - _start);
}

double
TimeWeightedValue::integralSeconds(SimTime now) const
{
    if (!_started)
        return 0.0;
    const double area = _area + _value * static_cast<double>(now - _last);
    return area / static_cast<double>(kSecond);
}

std::uint64_t
peakRssBytes()
{
    // VmHWM honours resetPeakRss(); ru_maxrss never goes down.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    // Linux (and the BSDs) report kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
    return 0;  // No getrusage on this platform.
#endif
}

bool
resetPeakRss()
{
    std::ofstream clearRefs("/proc/self/clear_refs");
    clearRefs << "5";
    clearRefs.flush();
    return static_cast<bool>(clearRefs);
}

std::uint64_t
monotonicNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace dejavu
