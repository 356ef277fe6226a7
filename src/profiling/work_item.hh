/**
 * @file
 * The unit of profiling work: everything that can occupy a host of
 * the §3.3 profiling pool — a signature collection *or* a tuner
 * experiment sequence — expressed as one typed WorkItem.
 *
 * PR 4 ended on an honest negative: the shared repository avoided
 * hundreds of tuner runs, but the hosts-vs-p95 knee did not move
 * because tuner experiments were modeled off-pool and signature
 * collections (the actual pool consumers) could not be shared. Making
 * both kinds of work first-class queue items is what lets one slot
 * scheduler arbitrate *all* pool demand, lets a coalescer batch
 * same-(kind, class, bucket) signature collections into one slot,
 * and lets a repository hit cancel a queued tuner item before it ever
 * burns a host (ADARES's argument that adaptive resource management
 * lives or dies on the cost of its measurement loop, applied to the
 * paper's profiling machines).
 *
 * An item names its owner but carries no SLO debt: the work queue
 * keeps one debt per owner (ProfilingWorkQueue::addDebt) and reads it
 * into the scheduler's waiting view before each pick.
 */

#ifndef DEJAVU_PROFILING_WORK_ITEM_HH
#define DEJAVU_PROFILING_WORK_ITEM_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/sim_time.hh"
#include "services/service.hh"

namespace dejavu {

/** What a profiling host would spend its slot on. */
enum class WorkKind
{
    Signature,  ///< Collect one workload signature (~10–20 s).
    Tuner,      ///< Run a §3.4/§3.6 tuning experiment sequence.
};

/** Stable name ("signature" | "tuner") for stats and digests. */
const char *workKindName(WorkKind kind);

/**
 * The reuse identity of a unit of profiling work: two items with the
 * same key measure the same thing, so one result can serve both. This
 * is the same (service kind, workload class, interference bucket) key
 * the SharedRepository uses — the coalescer batches same-key
 * signature collections, and a repository hit on this key cancels a
 * queued tuner item.
 */
struct WorkKey
{
    ServiceKind serviceKind = ServiceKind::Generic;
    /** Workload class id; -1 when unknown (never coalesced). */
    int classId = -1;
    /** Interference bucket (0 = no interference). */
    int bucket = 0;

    bool operator==(const WorkKey &other) const
    {
        return serviceKind == other.serviceKind
            && classId == other.classId && bucket == other.bucket;
    }
    bool operator!=(const WorkKey &other) const
    { return !(*this == other); }

    /** Keys with classId < 0 have no reuse identity: they never
     *  coalesce and never match a cancellation probe. */
    bool shareable() const { return classId >= 0; }

    std::string toString() const;
};

struct WorkKeyHash
{
    std::size_t operator()(const WorkKey &key) const
    {
        std::size_t h = static_cast<std::size_t>(key.serviceKind);
        h = h * 1000003u + static_cast<std::size_t>(key.classId + 1);
        h = h * 1000003u + static_cast<std::size_t>(key.bucket);
        return h;
    }
};

/** Dense id of a submitted work item; never reused. */
using WorkItemId = std::uint64_t;

constexpr WorkItemId kInvalidWorkItem =
    static_cast<WorkItemId>(-1);

/**
 * One queued unit of profiling work — the scheduler-visible facts
 * plus the reuse identity. The payload (which workload to profile,
 * which controller to run) stays with the submitter as a closure, so
 * the queue layer needs no knowledge of controllers.
 */
struct WorkItem
{
    WorkItemId id = kInvalidWorkItem;  ///< Assigned at submit().
    WorkKind kind = WorkKind::Signature;
    WorkKey key;
    std::size_t owner = 0;     ///< Submitter's member index.
    std::uint64_t seq = 0;     ///< Arrival order across both kinds.
    SimTime requestedAt = 0;
    /** Expected host occupancy. For Signature items this is exact;
     *  for Tuner items it is the scheduler-visible estimate (the
     *  linear search's worst case) and the actual occupancy comes
     *  from the run callback (dynamicDuration). */
    SimTime duration = 0;
    /** True when the real occupancy is only known after the work ran
     *  (tuner sequences stop at the first adequate allocation). */
    bool dynamicDuration = false;

    std::string toString() const;
};

/** Why a work item was cancelled (passed to its cancel callback). */
enum class WorkCancelReason
{
    Explicit,  ///< cancel(id) — the submitter withdrew it.
    Reuse,     ///< A same-key result landed in the repository first.
    HostLost,  ///< Its granted profiling host died mid-slot.
};

/**
 * Selects nothing: every fleet routes signature collections and §3.6
 * tuner experiments through the profiling work queue. Kept for
 * FleetBuilder::profilingWorkMode() callers written against it.
 */
enum class ProfilingWorkMode
{
    WorkQueue,
};

} // namespace dejavu

#endif // DEJAVU_PROFILING_WORK_ITEM_HH
