#include "workload/trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dejavu {

LoadTrace::LoadTrace(std::string name, std::vector<double> hourlyLoad)
    : _name(std::move(name)), _load(std::move(hourlyLoad))
{
    DEJAVU_ASSERT(!_load.empty(), "trace must have at least one sample");
    const double mx = *std::max_element(_load.begin(), _load.end());
    DEJAVU_ASSERT(mx > 0.0, "trace must have positive load somewhere");
    for (double &v : _load) {
        DEJAVU_ASSERT(v >= 0.0, "negative load sample");
        v /= mx;
    }
}

double
LoadTrace::at(std::size_t h) const
{
    DEJAVU_ASSERT(!_load.empty(), "empty trace");
    if (h >= _load.size())
        h = _load.size() - 1;
    return _load[h];
}

double
LoadTrace::atTime(SimTime t) const
{
    if (t < 0)
        t = 0;
    return at(static_cast<std::size_t>(t / kHour));
}

double
LoadTrace::at(int day, int hour) const
{
    DEJAVU_ASSERT(day >= 0 && hour >= 0 && hour < 24,
                  "bad (day, hour) index");
    return at(static_cast<std::size_t>(day) * 24 + hour);
}

} // namespace dejavu
