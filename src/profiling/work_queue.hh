/**
 * @file
 * The unified profiling work queue: every unit of work that wants a
 * host of the §3.3 profiling pool — signature collections *and* tuner
 * experiment sequences — is submitted as a WorkItem, and the
 * pluggable ProfilingSlotScheduler arbitrates the whole demand (not
 * just signature slots, as before this rework).
 *
 * The queue is an Actor: grants schedule tracked events on the shared
 * simulation, so profiling work interleaves deterministically with
 * trace drivers and monitor probes and cancels cleanly on
 * destruction. Payloads stay with the submitter — a WorkItem carries
 * only the scheduler-visible facts plus its reuse key, and the
 * submitted run/cancel callbacks close over whatever the work needs
 * (the controller, the workload) — so this layer knows nothing about
 * controllers and is testable standalone.
 *
 * Three behaviors distinguish it from the implicit queue it replaces:
 *
 *  - Same-key batching: with coalescing enabled, a shareable
 *    Signature item submitted while a same-(kind, class, bucket) one
 *    is still waiting joins that batch; the batch occupies ONE slot
 *    (the longest member's duration) and every member's run callback
 *    fires at slot start (see Coalescer).
 *  - Reuse-driven cancellation: cancelWhere() lets the owner withdraw
 *    queued (or granted-but-not-started) items whose result became
 *    available elsewhere — a SharedRepository hit cancels matching
 *    queued tuner items before they burn a slot.
 *  - Dynamic occupancy: a Tuner item's true duration is only known
 *    after its linear search stops, so its run callback returns the
 *    actual occupancy and the host is released then. Signature items
 *    keep a fixed-duration release, scheduled at grant time.
 */

#ifndef DEJAVU_PROFILING_WORK_QUEUE_HH
#define DEJAVU_PROFILING_WORK_QUEUE_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "obs/trace.hh"
#include "profiling/coalescer.hh"
#include "profiling/host_pool.hh"
#include "profiling/slot_scheduler.hh"
#include "profiling/work_item.hh"
#include "sim/actor.hh"

namespace dejavu {

/**
 * Queues WorkItems against a ProfilingHostPool under a slot policy.
 */
class ProfilingWorkQueue : public Actor
{
  public:
    /** Lifecycle of a submitted item. */
    enum class ItemState
    {
        Queued,     ///< Waiting for a host (possibly in a batch).
        Granted,    ///< Host assigned; run callback not yet fired.
        Done,       ///< Run callback fired.
        Cancelled,  ///< Withdrawn before its work ran.
    };

    /** Per-item-kind slot accounting — what the benches report. */
    struct Stats
    {
        std::uint64_t signatureSubmitted = 0;
        std::uint64_t tunerSubmitted = 0;
        /** Pool slots consumed running signature batches. */
        std::uint64_t signatureSlots = 0;
        /** Pool slots consumed running tuner sequences. */
        std::uint64_t tunerSlots = 0;
        /** Signature collections served by a batch leader's slot —
         *  demand coalesced away (fan-outs that actually ran). */
        std::uint64_t coalescedSignatures = 0;
        /** Items withdrawn while still waiting. */
        std::uint64_t cancelledQueued = 0;
        /** Items withdrawn between grant and slot start. */
        std::uint64_t cancelledGranted = 0;
        /** Tuner items cancelled because a peer's result landed in
         *  the repository first (the subset of the two counters
         *  above with WorkCancelReason::Reuse). */
        std::uint64_t tunerCancelledForReuse = 0;
        /** @name Host-loss fault injection @{ */
        std::uint64_t hostsFailed = 0;
        std::uint64_t hostsRestored = 0;
        /** Granted items whose host died before their work ran (the
         *  subset of cancelledGranted with
         *  WorkCancelReason::HostLost). */
        std::uint64_t cancelledHostLost = 0;
        /** @} */

        /** Pool slots actually consumed, either kind. */
        std::uint64_t slotsConsumed() const
        { return signatureSlots + tunerSlots; }
    };

    /** What a run callback learns when its item's work starts. */
    struct WorkGrant
    {
        const WorkItem *item = nullptr;
        std::size_t host = 0;
        SimTime startedAt = 0;
        /** Occupancy charged to this item: the batch occupancy for
         *  the member that runs first (the Tuner estimate until the
         *  callback returns the real one), 0 for coalesced
         *  followers served by the leader's slot. */
        SimTime slotDuration = 0;
        /** True when served by another item's slot (fan-out). */
        bool coalesced = false;
    };

    /** Executes the item's work at slot start. The return value is
     *  the actual host occupancy and is honored only for
     *  dynamicDuration items; fixed items release at their nominal
     *  duration regardless. */
    using RunFn = std::function<SimTime(const WorkGrant &)>;

    /** Notified when the item is withdrawn before running. */
    using CancelFn =
        std::function<void(const WorkItem &, WorkCancelReason)>;

    /** Refreshes an item's SLO debt when the scheduler view is
     *  built (so policies see the debtor's state *now*, not at
     *  enqueue time). */
    using DebtProbe = std::function<double(const WorkItem &)>;

    /** Spends an item's debt when it is granted (prioritization
     *  starts over once it gets a host). */
    using DebtSpend = std::function<void(const WorkItem &)>;

    /** @p scheduler defaults to FIFO when null; @p hosts is the §3.3
     *  pool size M; @p coalesceSignatures enables same-key batching
     *  (callers gate it on repository sharing — fanning one
     *  measurement out across services is only sound when their
     *  class ids are compatible by construction). */
    ProfilingWorkQueue(
        Simulation &sim,
        std::unique_ptr<ProfilingSlotScheduler> scheduler,
        int hosts, bool coalesceSignatures = false,
        std::string name = "profiling-work-queue");

    void setDebtProbe(DebtProbe fn) { _debtProbe = std::move(fn); }
    void setDebtSpend(DebtSpend fn) { _debtSpend = std::move(fn); }

    /**
     * Attach a trace recorder (docs/OBSERVABILITY.md): the queue
     * emits the full item lifecycle — `submit.*` / `coalesce.join` /
     * `grant` / `cancel.*` instants on the `pool/queue` lane, slot
     * spans and `outage` spans on per-host `pool/host-<i>` lanes —
     * in sim-time. Observation only: recording never schedules
     * events, so digests are unchanged. Null detaches.
     */
    void setTrace(obs::TraceRecorder *trace);

    /**
     * Queue one unit of profiling work. The queue assigns id, seq
     * and requestedAt; the caller fills kind, key, owner, duration
     * and dynamicDuration. Dispatches immediately, so the work may
     * be granted (and its run event scheduled) before this returns.
     * @return the assigned item id (also written into the item).
     */
    WorkItemId submit(WorkItem item, RunFn run, CancelFn onCancel = {});

    /**
     * Withdraw one item. Queued items leave the waiting queue at
     * once (a batch survives losing members; losing its leader
     * promotes the next member). Granted items whose slot has not
     * started skip their work and free the host at slot-start time.
     * (Named cancelItem, not cancel: WorkItemId and EventId are both
     * 64-bit, so an overload would silently shadow Actor::cancel.)
     * @return false when the item already ran or was cancelled.
     */
    bool cancelItem(WorkItemId id,
                    WorkCancelReason reason =
                        WorkCancelReason::Explicit);

    /**
     * Withdraw every queued or granted-but-not-started item matching
     * @p pred, in submission order (deterministic).
     * @return how many items were cancelled.
     */
    std::size_t cancelWhere(
        const std::function<bool(const WorkItem &)> &pred,
        WorkCancelReason reason);

    /**
     * Fault injection: @p host dies right now. Its in-flight grant
     * (if any) is abandoned — members whose work has not yet run are
     * cancelled with WorkCancelReason::HostLost, the pre-scheduled
     * slot release is withdrawn, and the host leaves the pool without
     * ever being released (busy/free/dead accounting stays balanced,
     * see ProfilingHostPool::markDead). Queued items are untouched:
     * they simply wait for a surviving host. Fatal if the host is out
     * of range or already dead.
     */
    void failHost(std::size_t host);

    /** Bring a dead host back (idle) and dispatch waiting work to it.
     *  Fatal if the host is not dead. */
    void restoreHost(std::size_t host);

    /** @name Introspection @{ */
    const ProfilingSlotScheduler &scheduler() const
    { return *_scheduler; }
    const ProfilingHostPool &pool() const { return _hosts; }
    int hosts() const { return _hosts.hosts(); }
    int busyHosts() const { return _hosts.busy(); }
    /** Items waiting for a host, batch followers included. */
    std::size_t waitingItems() const;
    /** Scheduler-visible queue entries (a batch counts once). */
    std::size_t waitingEntries() const { return _waiting.size(); }
    /** Items ever submitted. */
    std::size_t submitted() const { return _items.size(); }
    /** Items stranded in Granted state with no live grant — must be
     *  zero at all times (failHost cancels a dead host's members
     *  synchronously); exposed for host-loss conformance checks. */
    std::size_t orphanedItems() const;
    ItemState state(WorkItemId id) const;
    const WorkItem &item(WorkItemId id) const;
    const Stats &stats() const { return _stats; }
    const Coalescer &coalescer() const { return _coalescer; }
    /** @} */

  private:
    struct Item
    {
        WorkItem info;
        RunFn run;
        CancelFn onCancel;
        ItemState state = ItemState::Queued;
    };

    /** One scheduler-visible queue position: a batch of >= 1 items
     *  (members[0] is the leader; only coalescable entries ever grow
     *  past one member). */
    struct Entry
    {
        std::vector<WorkItemId> members;
        bool coalescable = false;  ///< Registered with the Coalescer.
    };

    /** Everything a grant's run/release events need. Shared between
     *  the two events so a cancel-during-grant can be detected and
     *  the pre-scheduled release withdrawn. */
    struct GrantState
    {
        std::vector<WorkItemId> members;
        std::size_t host = 0;
        SimTime startedAt = 0;
        SimTime occupancy = 0;  ///< Fixed occupancy (batch maximum).
        bool dynamic = false;
        EventId release = kInvalidEvent;
        /** The grant's host died: pending run/release events are
         *  inert, and the host must never be released. */
        bool failed = false;
    };

    Item &itemRef(WorkItemId id);
    const Item &itemRef(WorkItemId id) const;

    /** The scheduler view of one entry: the leader's identity, the
     *  batch's longest duration, the members' summed (refreshed)
     *  debt. */
    ProfilingRequest viewOf(Entry &entry);

    /** Grant free hosts to the scheduler's picks until the pool is
     *  exhausted or the queue drains. */
    void dispatch();

    /** The slot-start event of one grant. */
    void runGrant(const std::shared_ptr<GrantState> &grant);

    /** Remove a cancelled @p id from its queued entry. */
    void removeQueued(WorkItemId id);

    std::unique_ptr<ProfilingSlotScheduler> _scheduler;
    ProfilingHostPool _hosts;
    Coalescer _coalescer;
    std::vector<Item> _items;  ///< Indexed by WorkItemId (dense).
    std::deque<Entry> _waiting;
    /** The active grant per host (null when idle) — what failHost()
     *  abandons when that host dies. */
    std::vector<std::shared_ptr<GrantState>> _active;
    std::uint64_t _nextSeq = 0;
    DebtProbe _debtProbe;
    DebtSpend _debtSpend;
    Stats _stats;
    obs::TraceRecorder *_trace = nullptr;
    obs::LaneId _queueLane = 0;
    std::vector<obs::LaneId> _hostLanes;
};

} // namespace dejavu

#endif // DEJAVU_PROFILING_WORK_QUEUE_HH
