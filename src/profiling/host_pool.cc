#include "profiling/host_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dejavu {

ProfilingHostPool::ProfilingHostPool(int hosts)
    : _busy(static_cast<std::size_t>(std::max(hosts, 0)), 0),
      _dead(static_cast<std::size_t>(std::max(hosts, 0)), 0)
{
    DEJAVU_ASSERT(hosts >= 1, "profiling pool needs >= 1 host, got ",
                  hosts);
}

std::vector<std::size_t>
ProfilingHostPool::freeHosts() const
{
    std::vector<std::size_t> free;
    free.reserve(_busy.size()
                 - static_cast<std::size_t>(_busyCount + _deadCount));
    for (std::size_t h = 0; h < _busy.size(); ++h)
        if (!_busy[h] && !_dead[h])
            free.push_back(h);
    return free;
}

void
ProfilingHostPool::acquire(std::size_t host)
{
    DEJAVU_ASSERT(host < _busy.size(), "no such profiling host: ",
                  host);
    DEJAVU_ASSERT(!_dead[host], "profiling host ", host, " is dead");
    DEJAVU_ASSERT(!_busy[host], "profiling host ", host,
                  " already busy");
    _busy[host] = 1;
    ++_busyCount;
}

void
ProfilingHostPool::release(std::size_t host)
{
    DEJAVU_ASSERT(host < _busy.size(), "no such profiling host: ",
                  host);
    DEJAVU_ASSERT(_busy[host], "profiling host ", host, " not busy");
    _busy[host] = 0;
    --_busyCount;
}

void
ProfilingHostPool::markDead(std::size_t host)
{
    DEJAVU_ASSERT(host < _busy.size(), "no such profiling host: ",
                  host);
    DEJAVU_ASSERT(!_dead[host], "profiling host ", host,
                  " already dead");
    // A busy host's slot dies with it: the accounting balances
    // (busy + free + dead == hosts) and the work queue cancels the
    // in-flight grant.
    if (_busy[host]) {
        _busy[host] = 0;
        --_busyCount;
    }
    _dead[host] = 1;
    ++_deadCount;
}

void
ProfilingHostPool::revive(std::size_t host)
{
    DEJAVU_ASSERT(host < _busy.size(), "no such profiling host: ",
                  host);
    DEJAVU_ASSERT(_dead[host], "profiling host ", host, " not dead");
    _dead[host] = 0;
    --_deadCount;
}

} // namespace dejavu

