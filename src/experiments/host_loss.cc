#include "experiments/host_loss.hh"

#include "common/logging.hh"
#include "experiments/fleet.hh"
#include "sim/event_queue.hh"

namespace dejavu {

HostLossSchedule::HostLossSchedule(EventQueue &queue,
                                   DejaVuFleet &fleet, Config config)
    : _queue(queue), _fleet(fleet), _config(config)
{
    DEJAVU_ASSERT(_config.firstKill >= 0,
                  "host-loss first kill must not be negative");
    DEJAVU_ASSERT(_config.outage > 0,
                  "host-loss outage must be positive");
    DEJAVU_ASSERT(_config.outage < _config.period,
                  "host-loss outage must fit within the period");
}

void
HostLossSchedule::start()
{
    if (!_config.enabled || _active)
        return;
    _active = true;
    _queue.scheduleAfter(_config.firstKill, [this] { kill(); });
}

void
HostLossSchedule::kill()
{
    // Victims rotate round-robin so every pool host sees a loss in a
    // long enough run; with M=1 the single host dies every period.
    const auto hosts =
        static_cast<std::size_t>(_fleet.profilingHosts());
    const std::size_t victim = _nextVictim % hosts;
    _nextVictim = (_nextVictim + 1) % hosts;
    _fleet.failProfilingHost(victim);
    ++_kills;

    _queue.scheduleAfter(_config.outage, [this, victim] {
        _fleet.restoreProfilingHost(victim);
    });
    _queue.scheduleAfter(_config.period, [this] { kill(); });
}

} // namespace dejavu
