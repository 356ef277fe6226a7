#include "profiling/work_queue.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/simulation.hh"

namespace dejavu {

namespace {

/** The scheduler's view of an entry that @p leader leads, lasting as
 *  long as the leader's own work (a batch may last longer); the queue
 *  fills in the debt before each pick. */
ProfilingRequest
requestFor(const WorkItem &leader)
{
    ProfilingRequest request;
    request.member = leader.owner;
    request.seq = leader.seq;
    request.requestedAt = leader.requestedAt;
    request.slotDuration = leader.duration;
    return request;
}

} // namespace

ProfilingWorkQueue::ProfilingWorkQueue(
    Simulation &sim, std::unique_ptr<ProfilingSlotScheduler> scheduler,
    int hosts, bool coalesceSignatures, std::string name)
    : Actor(sim, std::move(name)),
      _scheduler(scheduler ? std::move(scheduler)
                           : makeSlotScheduler(SlotPolicy::Fifo)),
      _hosts(hosts), _coalescer(coalesceSignatures),
      _active(static_cast<std::size_t>(std::max(hosts, 0)))
{
}

void
ProfilingWorkQueue::setTrace(obs::TraceRecorder *trace)
{
    _trace = trace;
    if (_trace) {
        _queueLane = _trace->lane("pool/queue");
        _hostLanes.clear();
        for (int h = 0; h < hosts(); ++h)
            _hostLanes.push_back(
                _trace->lane("pool/host-" + std::to_string(h)));
    }
}

ProfilingWorkQueue::Item &
ProfilingWorkQueue::itemRef(WorkItemId id)
{
    DEJAVU_ASSERT(id < _states.size(), "no such work item: ", id);
    DEJAVU_ASSERT(_states[static_cast<std::size_t>(id)]
                          == ItemState::Queued
                      || _states[static_cast<std::size_t>(id)]
                          == ItemState::Granted,
                  "work item ", id, " already finished");
    return _live[_liveSlot[static_cast<std::size_t>(id)]];
}

void
ProfilingWorkQueue::retire(WorkItemId id)
{
    const std::uint32_t slot = _liveSlot[static_cast<std::size_t>(id)];
    _live[slot] = Item{};
    _freeSlots.push_back(slot);
}

ProfilingWorkQueue::ItemState
ProfilingWorkQueue::state(WorkItemId id) const
{
    DEJAVU_ASSERT(id < _states.size(), "no such work item: ", id);
    return _states[static_cast<std::size_t>(id)];
}

std::size_t
ProfilingWorkQueue::orphanedItems() const
{
    // Every Granted item must belong to a live (non-failed) grant
    // still parked on some host.
    std::vector<char> claimed(_states.size(), 0);
    for (const auto &grant : _active)
        if (grant)
            for (const WorkItemId id : grant->members)
                claimed[static_cast<std::size_t>(id)] = 1;
    std::size_t orphans = 0;
    for (std::size_t i = 0; i < _states.size(); ++i)
        if (_states[i] == ItemState::Granted && !claimed[i])
            ++orphans;
    return orphans;
}

std::size_t
ProfilingWorkQueue::waitingItems() const
{
    std::size_t n = 0;
    for (const auto &entry : _waiting)
        n += entry.members.size();
    return n;
}

WorkItemId
ProfilingWorkQueue::submit(WorkItem item, RunFn run, CancelFn onCancel)
{
    DEJAVU_ASSERT(!inMemberLocalScope(),
                  "profiling work submitted from member-local work");
    DEJAVU_ASSERT(item.duration >= 0, "negative work duration");
    DEJAVU_ASSERT(item.kind == WorkKind::Signature
                      || item.kind == WorkKind::Tuner,
                  "unknown work kind");
    item.id = static_cast<WorkItemId>(_states.size());
    item.seq = _nextSeq++;
    item.requestedAt = now();
    if (item.kind == WorkKind::Signature)
        ++_stats.signatureSubmitted;
    else
        ++_stats.tunerSubmitted;
    if (_trace)
        _trace->instant(
            _queueLane,
            item.kind == WorkKind::Signature ? "submit.signature"
                                             : "submit.tuner",
            now(), obs::TraceRecorder::kNoDetail, item.id);

    const WorkItemId id = item.id;
    std::uint32_t slot;
    if (_freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(_live.size());
        _live.emplace_back();
    } else {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    }
    _states.push_back(ItemState::Queued);
    _liveSlot.push_back(slot);
    Item &stored = _live[slot];
    stored = {std::move(item), std::move(run), std::move(onCancel)};

    coverOwner(stored.info.owner);

    // Same-key batching: a shareable signature collection submitted
    // while an equivalent one is still waiting joins that batch
    // instead of demanding its own slot.
    const bool coalescable = _coalescer.eligible(stored.info);
    if (coalescable) {
        const WorkItemId leader =
            _coalescer.leaderFor(stored.info.key);
        if (leader != kInvalidWorkItem) {
            for (std::size_t e = 0; e < _waiting.size(); ++e) {
                if (_waiting[e].members.front() != leader)
                    continue;
                _waiting[e].members.push_back(id);
                // The batch occupies one slot as long as its longest
                // member.
                SimTime &duration = _view[e].slotDuration;
                duration = std::max(duration, stored.info.duration);
                _coalescer.noteFanOut(stored.info.key);
                if (_trace)
                    _trace->instant(_queueLane, "coalesce.join", now(),
                                    obs::TraceRecorder::kNoDetail, id);
                dispatch();
                return id;
            }
            fatal("coalescer points at a batch that left the queue: ",
                  stored.info.key.toString());
        }
        _coalescer.open(stored.info);
    }
    _waiting.push_back({{id}, coalescable});
    _view.push_back(requestFor(stored.info));
    dispatch();
    return id;
}

void
ProfilingWorkQueue::coverOwner(std::size_t owner)
{
    if (owner >= _debt.size())
        _debt.resize(owner + 1, 0.0);
}

void
ProfilingWorkQueue::addDebt(std::size_t owner, double amount)
{
    DEJAVU_ASSERT(!inMemberLocalScope(),
                  "SLO debt added from member-local work");
    coverOwner(owner);
    _debt[owner] += amount;
}

void
ProfilingWorkQueue::refreshDebts()
{
    // Only the debts can have changed since the last pick: the rest
    // of the view moves with its entries. The leader's owner is the
    // view's own, so a single-member entry reads no item.
    auto request = _view.begin();
    for (const Entry &entry : _waiting) {
        double debt = 0.0;
        debt += _debt[request->member];
        for (std::size_t m = 1; m < entry.members.size(); ++m)
            debt += _debt[itemRef(entry.members[m]).info.owner];
        (request++)->sloDebt = debt;
    }
}

void
ProfilingWorkQueue::dispatch()
{
    // Grant until the pool or the queue is exhausted. The scheduler
    // sees a current view each iteration: every grant removes its
    // entry from the waiting view and its host from the free list,
    // and each granted member's debt is spent before the next pick.
    while (_hosts.anyFree() && !_waiting.empty()) {
        refreshDebts();
        const std::vector<std::size_t> freeHosts = _hosts.freeHosts();
        const SlotGrant grant = _scheduler->grant(_view, freeHosts);
        DEJAVU_ASSERT(grant.request < _view.size(), "scheduler '",
                      _scheduler->name(), "' picked out of range: ",
                      grant.request);
        DEJAVU_ASSERT(std::find(freeHosts.begin(), freeHosts.end(),
                                grant.host) != freeHosts.end(),
                      "scheduler '", _scheduler->name(),
                      "' granted a busy or unknown host: ", grant.host);

        const SimTime occupancy = _view[grant.request].slotDuration;
        Entry entry = std::move(_waiting[grant.request]);
        _waiting.erase(_waiting.begin()
                       + static_cast<std::ptrdiff_t>(grant.request));
        _view.erase(_view.begin()
                    + static_cast<std::ptrdiff_t>(grant.request));
        if (entry.coalescable)
            _coalescer.close(itemRef(entry.members.front()).info.key);

        _hosts.acquire(grant.host);

        auto state = std::make_shared<GrantState>();
        state->members = std::move(entry.members);
        state->host = grant.host;
        state->startedAt = now();
        state->occupancy = occupancy;
        const WorkItem &leader = itemRef(state->members.front()).info;
        state->kind = leader.kind;
        state->dynamic = leader.dynamicDuration;
        DEJAVU_ASSERT(!state->dynamic || state->members.size() == 1,
                      "dynamic-duration work must not batch");

        for (const WorkItemId id : state->members) {
            _states[static_cast<std::size_t>(id)] = ItemState::Granted;
            // The granted member's owner has its debt spent:
            // prioritization starts over after it gets a host.
            _debt[itemRef(id).info.owner] = 0.0;
        }

        _active[state->host] = state;
        if (_trace)
            _trace->instant(
                _queueLane, "grant", now(),
                obs::TraceRecorder::kNoDetail, state->members.size());

        // The work runs when the slot starts; fixed-duration slots
        // pre-schedule their release (preserving the event order of
        // the pre-work-queue fleet), dynamic ones release from the
        // run event once the true occupancy is known.
        at(state->startedAt, [this, state] { runGrant(state); });
        if (!state->dynamic)
            state->release = at(
                saturatingAdd(state->startedAt, state->occupancy),
                [this, state] {
                    if (state->failed)
                        return;  // its host died mid-slot
                    if (_trace)
                        _trace->end(_hostLanes[state->host], now());
                    _active[state->host].reset();
                    _hosts.release(state->host);
                    dispatch();
                });
    }
}

void
ProfilingWorkQueue::runGrant(const std::shared_ptr<GrantState> &grant)
{
    if (grant->failed)
        return;  // its host died between grant and slot start
    bool anyLive = false;
    for (const WorkItemId id : grant->members)
        anyLive = anyLive
            || _states[static_cast<std::size_t>(id)]
                == ItemState::Granted;
    if (!anyLive) {
        // Every member was cancelled between grant and slot start:
        // free the host without consuming the slot.
        if (grant->release != kInvalidEvent)
            Actor::cancel(grant->release);
        _active[grant->host].reset();
        _hosts.release(grant->host);
        dispatch();
        return;
    }

    if (_trace) {
        _trace->begin(_hostLanes[grant->host],
                      grant->kind == WorkKind::Signature
                          ? "slot.signature"
                          : "slot.tuner",
                      grant->startedAt,
                      obs::TraceRecorder::kNoDetail,
                      grant->members.size());
    }

    bool first = true;
    SimTime actual = grant->occupancy;
    for (const WorkItemId id : grant->members) {
        ItemState &state = _states[static_cast<std::size_t>(id)];
        if (state != ItemState::Granted)
            continue;  // cancelled while its batch waited to start
        // Out of the live table before the work runs: the callback
        // may submit new work, which may take this slot (the closures
        // and the item's facts leave with it, so a finished item
        // keeps only its state byte).
        Item &member = itemRef(id);
        const WorkItem info = member.info;
        const RunFn run = std::move(member.run);
        state = ItemState::Done;
        retire(id);
        WorkGrant wg;
        wg.item = &info;
        wg.host = grant->host;
        wg.startedAt = grant->startedAt;
        wg.slotDuration = first ? grant->occupancy : 0;
        wg.coalesced = !first;
        const SimTime reported = run ? run(wg) : info.duration;
        if (first) {
            if (grant->dynamic) {
                DEJAVU_ASSERT(reported >= 0,
                              "negative reported occupancy");
                actual = reported;
            }
            if (info.kind == WorkKind::Signature)
                ++_stats.signatureSlots;
            else if (!grant->dynamic || reported > 0)
                // A dynamic item reporting zero occupancy consumed
                // no host time (e.g. a tuner grant resolved from the
                // repository) — it is not pool demand.
                ++_stats.tunerSlots;
        } else {
            ++_stats.coalescedSignatures;
        }
        first = false;
    }

    if (grant->dynamic)
        at(saturatingAdd(grant->startedAt, actual),
           [this, state = grant] {
               if (state->failed)
                   return;  // its host died mid-slot
               if (_trace)
                   _trace->end(_hostLanes[state->host], now());
               _active[state->host].reset();
               _hosts.release(state->host);
               dispatch();
           });
}

void
ProfilingWorkQueue::removeQueued(WorkItemId id)
{
    for (std::size_t e = 0; e < _waiting.size(); ++e) {
        Entry &entry = _waiting[e];
        const auto it = std::find(entry.members.begin(),
                                  entry.members.end(), id);
        if (it == entry.members.end())
            continue;
        const bool wasLeader = it == entry.members.begin();
        entry.members.erase(it);
        if (entry.members.empty()) {
            if (entry.coalescable)
                _coalescer.close(itemRef(id).info.key);
            _waiting.erase(_waiting.begin()
                           + static_cast<std::ptrdiff_t>(e));
            _view.erase(_view.begin() + static_cast<std::ptrdiff_t>(e));
            return;
        }
        // The batch goes on without @p id: its first remaining member
        // leads it, and it lasts as long as its longest remaining
        // member.
        ProfilingRequest &request = _view[e];
        request = requestFor(itemRef(entry.members.front()).info);
        for (const WorkItemId member : entry.members)
            request.slotDuration = std::max(
                request.slotDuration, itemRef(member).info.duration);
        if (wasLeader && entry.coalescable)
            _coalescer.promote(itemRef(id).info.key,
                               entry.members.front());
        return;
    }
    fatal("queued work item ", id, " not found in any entry");
}

bool
ProfilingWorkQueue::cancelItem(WorkItemId id, WorkCancelReason reason)
{
    DEJAVU_ASSERT(!inMemberLocalScope(),
                  "profiling work cancelled from member-local work");
    DEJAVU_ASSERT(id < _states.size(), "no such work item: ", id);
    ItemState &state = _states[static_cast<std::size_t>(id)];
    switch (state) {
      case ItemState::Queued:
        removeQueued(id);
        ++_stats.cancelledQueued;
        break;
      case ItemState::Granted:
        // The slot-start event will see the cancellation, skip the
        // work and free the host (runGrant).
        ++_stats.cancelledGranted;
        break;
      case ItemState::Done:
      case ItemState::Cancelled:
        return false;
    }
    Item &target = itemRef(id);
    state = ItemState::Cancelled;
    if (target.info.kind == WorkKind::Tuner
        && reason == WorkCancelReason::Reuse)
        ++_stats.tunerCancelledForReuse;
    if (_trace) {
        const char *name = "cancel.explicit";
        switch (reason) {
        case WorkCancelReason::Explicit: break;
        case WorkCancelReason::Reuse: name = "cancel.reuse"; break;
        case WorkCancelReason::HostLost:
            name = "cancel.host-lost";
            break;
        }
        _trace->instant(_queueLane, name, now(),
                        obs::TraceRecorder::kNoDetail, id);
    }
    // Out of the live table before the callback runs: it may submit
    // new work, which may take this slot.
    const WorkItem info = target.info;
    const CancelFn onCancel = std::move(target.onCancel);
    retire(id);
    if (onCancel)
        onCancel(info, reason);
    return true;
}

void
ProfilingWorkQueue::failHost(std::size_t host)
{
    // markDead asserts the host exists and is not already dead, and
    // balances the busy/free/dead accounting (a busy host's slot dies
    // with it).
    _hosts.markDead(host);
    ++_stats.hostsFailed;

    const std::shared_ptr<GrantState> grant = _active[host];
    _active[host].reset();
    if (_trace) {
        // Close the open slot span (if its run already began) before
        // opening the outage span, so the host lane stays balanced.
        if (grant && grant->startedAt <= now()) {
            bool ran = false;
            for (const WorkItemId id : grant->members)
                ran = ran
                    || _states[static_cast<std::size_t>(id)]
                        == ItemState::Done;
            if (ran)
                _trace->end(_hostLanes[host], now());
        }
        _trace->instant(_hostLanes[host], "host.lost", now());
        _trace->begin(_hostLanes[host], "outage", now());
    }
    if (!grant)
        return;
    // Abandon the in-flight grant: pending run/release events go
    // inert, members whose work has not run yet are cancelled, and
    // the host is never released (it is dead, not busy).
    grant->failed = true;
    if (grant->release != kInvalidEvent)
        Actor::cancel(grant->release);
    for (const WorkItemId id : grant->members)
        if (_states[static_cast<std::size_t>(id)] == ItemState::Granted
            && cancelItem(id, WorkCancelReason::HostLost))
            ++_stats.cancelledHostLost;
}

void
ProfilingWorkQueue::restoreHost(std::size_t host)
{
    _hosts.revive(host);
    ++_stats.hostsRestored;
    if (_trace) {
        _trace->end(_hostLanes[host], now());  // close "outage"
        _trace->instant(_hostLanes[host], "host.restored", now());
    }
    dispatch();
}

std::size_t
ProfilingWorkQueue::cancelWhere(
    const std::function<bool(const WorkItem &)> &pred,
    WorkCancelReason reason)
{
    DEJAVU_ASSERT(!inMemberLocalScope(),
                  "profiling work cancelled from member-local work");
    // Submission (id) order keeps multi-item cancellations
    // deterministic regardless of queue position or live slot.
    std::vector<WorkItemId> doomed;
    for (const Item &candidate : _live)
        if (candidate.info.id != kInvalidWorkItem
            && pred(candidate.info))
            doomed.push_back(candidate.info.id);
    std::sort(doomed.begin(), doomed.end());
    std::size_t cancelled = 0;
    for (const WorkItemId id : doomed)
        if (cancelItem(id, reason))
            ++cancelled;
    return cancelled;
}

} // namespace dejavu
