#include "sim/event_queue.hh"

#include "common/logging.hh"
#include "common/parallel.hh"

namespace dejavu {

void
EventQueue::reserve(std::size_t slots)
{
    // +1 for the never-allocated slot 0.
    _slots.reserve(slots + 1);
    _free.reserve(slots);
    _heap.reserve(slots);
}

EventId
EventQueue::allocSlot()
{
    DEJAVU_ASSERT(!inMemberLocalScope(),
                  "event scheduled from member-local work");
    if (_slots.empty())
        _slots.emplace_back();  // slot 0 stays dead: kInvalidEvent.
    std::uint32_t index;
    if (!_free.empty()) {
        index = _free.back();
        _free.pop_back();
    } else {
        index = static_cast<std::uint32_t>(_slots.size());
        DEJAVU_ASSERT(_slots.size() < UINT32_MAX,
                      "event slot pool exhausted");
        _slots.emplace_back();
    }
    Slot &slot = _slots[index];
    slot.live = true;
    ++_live;
    return makeId(index, slot.gen);
}

void
EventQueue::killSlot(std::uint32_t index)
{
    Slot &slot = _slots[index];
    slot.live = false;
    slot.fn = nullptr;
    slot.period = 0;
    // Advancing the generation invalidates every outstanding handle
    // and stale heap entry before the index is handed out again.
    ++slot.gen;
    _free.push_back(index);
    --_live;
}

EventId
EventQueue::schedule(SimTime at, Callback fn, EventBand band)
{
    DEJAVU_ASSERT(at >= _now, "cannot schedule in the past: at=", at,
                  " now=", _now);
    const EventId id = allocSlot();
    Slot &slot = _slots[slotIndex(id)];
    slot.fn = std::move(fn);
    slot.band = band;
    push(Entry{at, _nextSeq++, id, band});
    return id;
}

EventId
EventQueue::scheduleAfter(SimTime delay, Callback fn, EventBand band)
{
    DEJAVU_ASSERT(delay >= 0, "negative delay");
    return schedule(saturatingAdd(_now, delay), std::move(fn), band);
}

EventId
EventQueue::schedulePeriodic(SimTime first, SimTime period, Callback fn,
                             EventBand band)
{
    DEJAVU_ASSERT(period > 0, "periodic event needs a positive period");
    DEJAVU_ASSERT(first >= _now, "cannot schedule in the past: at=",
                  first, " now=", _now);
    const EventId id = allocSlot();
    Slot &slot = _slots[slotIndex(id)];
    slot.fn = std::move(fn);
    slot.period = period;
    slot.band = band;
    push(Entry{first, _nextSeq++, id, band});
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    DEJAVU_ASSERT(!inMemberLocalScope(),
                  "event cancelled from member-local work");
    if (!isPending(id))
        return false;
    // Any heap entry the event still owns goes stale (its generation
    // no longer matches) and is skipped on pop; a periodic cancelled
    // from inside its own callback (its entry already popped) simply
    // never re-arms.
    killSlot(slotIndex(id));
    return true;
}

bool
EventQueue::popLive(Entry &out)
{
    while (!_heap.empty()) {
        Entry e = _heap.front();
        std::pop_heap(_heap.begin(), _heap.end());
        _heap.pop_back();
        if (!isPending(e.id))
            continue;  // cancelled/recycled after arming; stale entry
        out = e;
        return true;
    }
    return false;
}

void
EventQueue::fire(const Entry &e)
{
    ++_executed;
    const std::uint32_t index = slotIndex(e.id);
    if (_slots[index].period > 0) {
        // Invoke a copy: the callback may cancel its own series
        // (releasing the stored closure, recycling the slot) or
        // schedule new events (reallocating the slot vector out from
        // under a reference).
        Callback fn = _slots[index].fn;
        fn();
        if (!isPending(e.id))
            return;  // cancelled during the callback
        Slot &slot = _slots[index];
        const SimTime next = saturatingAdd(_now, slot.period);
        if (next > _now) {
            push(Entry{next, _nextSeq++, e.id, slot.band});
        } else {
            // Saturated at the end of simulated time: re-arming at
            // the same instant would spin runUntil(kSimTimeMax)
            // forever, so the series ends here.
            killSlot(index);
        }
        return;
    }
    Callback fn = std::move(_slots[index].fn);
    killSlot(index);
    fn();
}

std::size_t
EventQueue::runUntil(SimTime limit)
{
    std::size_t executed = 0;
    Entry e;
    while (!_heap.empty()) {
        // Peek: find the next live entry without losing it.
        if (!popLive(e))
            break;
        if (e.at > limit) {
            // Push back and stop; limit reached.
            push(e);
            break;
        }
        _now = e.at;
        fire(e);
        ++executed;
    }
    if (_now < limit)
        _now = limit;
    return executed;
}

std::size_t
EventQueue::runAll(std::size_t maxEvents)
{
    std::size_t executed = 0;
    Entry e;
    while (executed < maxEvents && popLive(e)) {
        _now = e.at;
        fire(e);
        ++executed;
    }
    DEJAVU_ASSERT(executed < maxEvents || empty(),
                  "event budget exhausted; runaway self-scheduling?");
    return executed;
}

bool
EventQueue::step()
{
    Entry e;
    if (!popLive(e))
        return false;
    _now = e.at;
    fire(e);
    return true;
}

} // namespace dejavu
