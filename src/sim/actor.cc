#include "sim/actor.hh"

#include <algorithm>
#include "common/logging.hh"
#include "sim/simulation.hh"

namespace dejavu {

Actor::Actor(Simulation &sim, std::string name)
    : _sim(sim), _name(std::move(name))
{
    DEJAVU_ASSERT(!_name.empty(), "actor needs a name");
    _sim.attach(*this);
}

Actor::~Actor()
{
    cancelAll();
    _sim.detach(*this);
}

EventQueue &
Actor::queue() const
{
    return _sim.queue();
}

SimTime
Actor::now() const
{
    return _sim.now();
}

EventId
Actor::track(EventId id)
{
    // Already-run ids are harmless (cancel() on them is a no-op), but
    // compact occasionally so long-lived actors don't accumulate one
    // entry per event ever scheduled. The threshold doubles with the
    // live set so an actor legitimately holding many pending events
    // pays amortized O(1) per insert, not a rescan per insert.
    if (_scheduled.size() >= _compactAt) {
        auto dead = [this](EventId e) { return !queue().isPending(e); };
        _scheduled.erase(std::remove_if(_scheduled.begin(),
                                        _scheduled.end(), dead),
                         _scheduled.end());
        _compactAt = std::max<std::size_t>(64, 2 * _scheduled.size());
    }
    _scheduled.push_back(id);
    return id;
}

EventId
Actor::at(SimTime when, EventQueue::Callback fn, EventBand band)
{
    return track(queue().schedule(when, std::move(fn), band));
}

EventId
Actor::every(SimTime first, SimTime period, EventQueue::Callback fn,
             EventBand band)
{
    return track(queue().schedulePeriodic(first, period, std::move(fn),
                                          band));
}

bool
Actor::cancel(EventId id)
{
    return queue().cancel(id);
}

void
Actor::cancelAll()
{
    for (EventId id : _scheduled)
        queue().cancel(id);
    _scheduled.clear();
}

std::size_t
Actor::pendingEvents() const
{
    std::size_t n = 0;
    for (EventId id : _scheduled)
        if (queue().isPending(id))
            ++n;
    return n;
}

} // namespace dejavu
