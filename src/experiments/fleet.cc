#include "experiments/fleet.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/simulation.hh"

namespace dejavu {

DejaVuFleet::DejaVuFleet(
    Simulation &sim, SimTime profilingSlot,
    std::unique_ptr<ProfilingSlotScheduler> scheduler,
    int profilingHosts, bool sharedRepository)
    : Actor(sim, "dejavu-fleet"), _defaultSlot(profilingSlot),
      _sharedRepository(sharedRepository),
      _workQueue(sim, std::move(scheduler), profilingHosts,
                 sharedRepository)
{
    DEJAVU_ASSERT(_defaultSlot > 0, "slot duration must be positive");
    // Slot policies see each waiting item's owner debt as of *now*,
    // and a grant spends the owner's accumulated debt.
    _workQueue.setDebtProbe([this](const WorkItem &item) {
        return _members[item.owner].sloDebt;
    });
    _workQueue.setDebtSpend([this](const WorkItem &item) {
        _members[item.owner].sloDebt = 0.0;
    });
}

void
DejaVuFleet::addService(const std::string &name, Service &service,
                        DejaVuController &controller,
                        SimTime profilingSlot)
{
    DEJAVU_ASSERT(!name.empty(), "service needs a name");
    DEJAVU_ASSERT(profilingSlot >= 0, "negative profiling slot");
    DEJAVU_ASSERT(!_memberIndex.count(name),
                  "duplicate service name: ", name);
    const std::size_t idx = _members.size();
    _memberIndex.emplace(name, idx);
    _members.push_back({name, &service, &controller,
                        profilingSlot > 0 ? profilingSlot : _defaultSlot,
                        0.0, false});
    // The controller's §3.6 tuner sequences become pool work instead
    // of running inline off-pool.
    controller.setTuningDeferral(
        [this, idx](int classId, int bucket, SimTime estimate) {
            submitTunerWork(idx, classId, bucket, estimate);
        });
}

void
DejaVuFleet::addListener(AdaptationListener fn)
{
    _listeners.push_back(std::move(fn));
}

void
DejaVuFleet::setTrace(obs::TraceRecorder *trace)
{
    _trace = trace;
    _workQueue.setTrace(trace);
}

obs::LaneId
DejaVuFleet::memberLane(std::size_t idx)
{
    constexpr obs::LaneId kNoLane = ~obs::LaneId{0};
    if (_memberLanes.size() != _members.size())
        _memberLanes.resize(_members.size(), kNoLane);
    obs::LaneId &lane = _memberLanes[idx];
    if (lane == kNoLane)
        lane = _trace->lane("svc/" + _members[idx].name);
    return lane;
}

std::size_t
DejaVuFleet::memberIndex(const std::string &name) const
{
    const auto it = _memberIndex.find(name);
    if (it == _memberIndex.end())
        fatal("unknown service in fleet: ", name);
    return it->second;
}

void
DejaVuFleet::complete(CompletedAdaptation entry)
{
    _log.push_back(std::move(entry));
    DEJAVU_TRACE(if (_trace) {
        const CompletedAdaptation &done = _log.back();
        const char *name = "adapt.hit";
        if (done.peerServed)
            name = "adapt.peer";
        else if (done.decision.kind
                 == DejaVuController::DecisionKind::UnknownWorkload)
            name = "adapt.unknown";
        else if (done.decision.kind
                 == DejaVuController::DecisionKind
                        ::InterferenceAdjust)
            name = "adapt.interference";
        _trace->complete(
            memberLane(memberIndex(done.service)), name,
            done.requestedAt, done.totalAdaptation(),
            obs::TraceRecorder::kNoDetail,
            done.decision.classId >= 0
                ? static_cast<std::uint64_t>(done.decision.classId)
                : obs::TraceRecorder::kNoArg);
    });
    for (const auto &listener : _listeners)
        listener(_log.back());
}

void
DejaVuFleet::requestAdaptation(const std::string &name,
                               const Workload &workload)
{
    const std::size_t idx = memberIndex(name);
    Member &member = _members[idx];
    if (member.detached)
        return;

    WorkItem item;
    item.kind = WorkKind::Signature;
    item.owner = idx;
    item.duration = member.slotDuration;
    item.sloDebt = member.sloDebt;
    item.key.serviceKind = member.service->kind();
    // The reuse key is only worth computing when batching can use
    // it (the class prediction is RNG-free: a noise-free expected
    // signature).
    if (_sharedRepository) {
        item.key.classId = member.controller->predictClass(workload);
        item.key.bucket = member.controller->interferenceBucket();
    }

    _workQueue.submit(
        item,
        [this, idx, workload](
            const ProfilingWorkQueue::WorkGrant &grant) -> SimTime {
            Member &m = _members[idx];
            CompletedAdaptation entry;
            entry.service = m.name;
            entry.requestedAt = grant.item->requestedAt;
            entry.profilingStartedAt = grant.startedAt;
            entry.slotDuration = grant.slotDuration;
            entry.host = grant.host;
            entry.kind = WorkKind::Signature;
            entry.coalesced = grant.coalesced;
            // The controller runs when the slot starts; its own
            // adaptation time (signature collection etc.) is
            // measured from that point.
            entry.decision = m.controller->onWorkloadChange(workload);
            complete(std::move(entry));
            return grant.item->duration;
        });
}

void
DejaVuFleet::detachService(const std::string &name)
{
    const std::size_t idx = memberIndex(name);
    Member &member = _members[idx];
    if (member.detached)
        return;
    member.detached = true;
    _workQueue.cancelWhere(
        [idx](const WorkItem &item) { return item.owner == idx; },
        WorkCancelReason::Detached);
}

bool
DejaVuFleet::detached(const std::string &name) const
{
    return _members[memberIndex(name)].detached;
}

void
DejaVuFleet::submitTunerWork(std::size_t memberIdx, int classId,
                             int bucket, SimTime estimate)
{
    Member &member = _members[memberIdx];
    if (member.detached) {
        // Nothing will ever run or adopt this tuning: clear the
        // controller's pending state or its onSloFeedback stays
        // wedged behind it for the rest of the run.
        member.controller->abandonPendingTuning();
        return;
    }
    WorkItem item;
    item.kind = WorkKind::Tuner;
    item.owner = memberIdx;
    item.duration = estimate;
    item.dynamicDuration = true;  // linear search stops early
    item.sloDebt = member.sloDebt;
    item.key = {member.service->kind(), classId, bucket};
    _workQueue.submit(
        item,
        [this, memberIdx](const ProfilingWorkQueue::WorkGrant &grant) {
            return runTunerGrant(memberIdx, grant);
        },
        [this, memberIdx](const WorkItem &cancelled,
                          WorkCancelReason reason) {
            onTunerCancelled(memberIdx, cancelled, reason);
        });
}

SimTime
DejaVuFleet::runTunerGrant(std::size_t memberIdx,
                           const ProfilingWorkQueue::WorkGrant &grant)
{
    Member &member = _members[memberIdx];
    CompletedAdaptation entry;
    entry.service = member.name;
    entry.requestedAt = grant.item->requestedAt;
    entry.profilingStartedAt = grant.startedAt;
    entry.host = grant.host;
    entry.kind = WorkKind::Tuner;

    // A peer's finished tuning may already answer this item — e.g.
    // it was submitted after the peer's slot-end cancellation sweep
    // ran (a later interference episode for the same key). Adopt the
    // result instead of burning a slot on a duplicate experiment;
    // the occupancy reported to the pool is zero. A peer whose
    // experiments are still *running* does not count: its result is
    // stored at its slot end, so the probe here cannot see it.
    if (_sharedRepository) {
        if (auto adopted = member.controller->adoptPeerTuning()) {
            ++_tunerAdopted;
            entry.peerServed = true;
            entry.slotDuration = 0;
            entry.decision = *adopted;
            DEJAVU_TRACE(if (_trace) _trace->instant(
                memberLane(memberIdx), "repo.adopt", now()));
            complete(std::move(entry));
            return 0;
        }
    }

    entry.decision = member.controller->runPendingTuning();
    // The slot is occupied for the experiments actually run, not the
    // scheduler's worst-case estimate.
    entry.slotDuration = entry.decision.adaptationTime;
    const WorkKey key = grant.item->key;
    const SimTime occupancy = entry.slotDuration;
    // The tuned allocation lands in the repository at slot end (see
    // the cancellation sweep below) — mark the store there.
    DEJAVU_TRACE(if (_trace) _trace->instant(
        memberLane(memberIdx), "repo.store",
        saturatingAdd(grant.startedAt, occupancy)));
    complete(std::move(entry));
    // Reuse-driven cancellation: once the experiments finish (slot
    // end — the result is stored then, not before), the allocation
    // answers every still-queued same-key tuner item — cancel them
    // before they burn a slot; their owners adopt the peer's
    // allocation (see onTunerCancelled). Scheduled from the run
    // event after runPendingTuning(), so at slot end the store
    // fires first, then this sweep, then the queue's release
    // re-dispatches.
    if (_sharedRepository && key.shareable())
        at(saturatingAdd(grant.startedAt, occupancy), [this, key] {
            _workQueue.cancelWhere(
                [key](const WorkItem &other) {
                    return other.kind == WorkKind::Tuner
                        && other.key == key;
                },
                WorkCancelReason::Reuse);
        });
    return occupancy;
}

void
DejaVuFleet::onTunerCancelled(std::size_t memberIdx,
                              const WorkItem &item,
                              WorkCancelReason reason)
{
    Member &member = _members[memberIdx];
    if (reason == WorkCancelReason::Reuse) {
        if (auto decision = member.controller->adoptPeerTuning()) {
            DEJAVU_TRACE(if (_trace) _trace->instant(
                memberLane(memberIdx), "repo.adopt", now()));
            CompletedAdaptation entry;
            entry.service = member.name;
            entry.requestedAt = item.requestedAt;
            entry.profilingStartedAt = now();
            entry.slotDuration = 0;  // no slot consumed
            entry.host = 0;
            entry.kind = WorkKind::Tuner;
            entry.peerServed = true;
            entry.decision = *decision;
            complete(std::move(entry));
            return;
        }
        // The entry vanished between the peer's store and this
        // cancellation (a peer re-clustered in between) — fall
        // through to the do-no-harm abandon.
    }
    member.controller->abandonPendingTuning();
}

void
DejaVuFleet::noteSloViolation(const std::string &name)
{
    _members[memberIndex(name)].sloDebt += 1.0;
}

double
DejaVuFleet::sloDebt(const std::string &name) const
{
    return _members[memberIndex(name)].sloDebt;
}

SimTime
DejaVuFleet::maxQueueDelay() const
{
    SimTime worst = 0;
    for (const auto &entry : _log)
        worst = std::max(worst, entry.queueDelay());
    return worst;
}

} // namespace dejavu
