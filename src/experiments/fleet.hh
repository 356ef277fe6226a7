/**
 * @file
 * Multi-service DejaVu deployment (the paper's Figure 2): one DejaVu
 * installation profiles several hosted services (A, B, C ...) whose
 * proxies all feed the paper's "one or a few machines" dedicated to
 * profiling. §3.3's Isolation requirement is enforced per host of the
 * ProfilingHostPool; *which* waiting work gets a host when one frees
 * up is a pluggable ProfilingSlotScheduler policy (both now live in
 * src/profiling/).
 *
 * Since the work-queue rework the fleet no longer holds an implicit
 * queue of adaptation requests: every unit of profiling work — a
 * signature collection triggered by a workload change, or a §3.6
 * tuner experiment sequence a controller deferred — is a typed
 * WorkItem submitted to the ProfilingWorkQueue, and the slot
 * scheduler arbitrates the whole demand. When the members share one
 * repository the fleet also coalesces same-class signature
 * collections and cancels queued tuner items a peer's repository
 * write already answered.
 *
 * The fleet is an Actor on the shared simulation: profiling-slot
 * starts are ordinary tracked events, so a fleet interleaves with any
 * number of per-service trace drivers and the monitor sampler on one
 * queue, and cancels cleanly when destroyed.
 */

#ifndef DEJAVU_EXPERIMENTS_FLEET_HH
#define DEJAVU_EXPERIMENTS_FLEET_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/controller.hh"
#include "profiling/work_queue.hh"
#include "services/service.hh"
#include "sim/actor.hh"

namespace dejavu {

/**
 * A fleet of services managed by one DejaVu installation.
 */
class DejaVuFleet : public Actor
{
  public:
    /** One completed adaptation, handed to listeners (the fleet keeps
     *  none: a long run's records would grow without bound). */
    struct CompletedAdaptation
    {
        std::string service;
        SimTime requestedAt = 0;
        SimTime profilingStartedAt = 0;  ///< After any queueing.
        /** Host occupancy this work consumed: the granted slot for
         *  signature work (0 for coalesced followers served by a
         *  batch leader's slot), the measured tuning time for tuner
         *  work, 0 for peer-served cancellations. */
        SimTime slotDuration = 0;
        std::size_t host = 0;            ///< Pool host that ran it.
        WorkKind kind = WorkKind::Signature;
        /** Served by a same-class batch leader's slot (no own slot). */
        bool coalesced = false;
        /** Tuner item cancelled because a peer's result landed in
         *  the shared repository first (no slot consumed at all). */
        bool peerServed = false;
        DejaVuController::Decision decision;

        /** Time spent waiting for a free profiling host. */
        SimTime queueDelay() const
        { return profilingStartedAt - requestedAt; }
        /** End-to-end adaptation including the host-pool queue. */
        SimTime totalAdaptation() const
        { return queueDelay() + decision.adaptationTime; }
    };

    /** Notified after each adaptation completes (in grant order); the
     *  record is only valid during the call. */
    using AdaptationListener =
        std::function<void(const CompletedAdaptation &)>;

    /** @p scheduler defaults to FIFO when null; @p profilingHosts is
     *  the size M of the profiling host pool (>= 1).
     *  @p sharedRepository tells the fleet its members share one
     *  repository, so peers can serve each other: it batches
     *  same-(kind, class, bucket) signature collections into one slot
     *  (sound because same-kind class ids are compatible by
     *  construction) and, when a tuner run finishes, cancels queued
     *  same-key tuner items and serves their owners from the
     *  repository instead. */
    explicit DejaVuFleet(
        Simulation &sim, SimTime profilingSlot = seconds(10),
        std::unique_ptr<ProfilingSlotScheduler> scheduler = nullptr,
        int profilingHosts = 1, bool sharedRepository = false);

    /**
     * Register a service with its controller (must be learned before
     * the first adaptation request). @p profilingSlot is this member's
     * host occupancy per adaptation; 0 means the fleet default. This
     * also installs the controller's tuning deferral, so its §3.6
     * tuner sequences queue for the pool.
     */
    void addService(const std::string &name, Service &service,
                    DejaVuController &controller,
                    SimTime profilingSlot = 0);

    /**
     * A workload change arrived for @p name: submit a signature-
     * collection work item to the pool queue and run the controller
     * when the scheduler grants it a slot. Listeners see the decision
     * once processed (advance the simulation past the slot start).
     * Ignored for detached members.
     */
    void requestAdaptation(const std::string &name,
                           const Workload &workload);

    /**
     * Remove @p name from profiling service: every queued or
     * granted-but-not-started work item it owns is cancelled (no
     * implicit slot-hold survives the member), and later
     * requestAdaptation() calls for it are ignored. Adaptations it
     * already completed were reported to listeners. Idempotent.
     */
    void detachService(const std::string &name);

    /** True when detachService(@p name) was called. */
    bool detached(const std::string &name) const;

    /**
     * Record one SLO-violating production sample for @p name. Debt
     * accumulates until the member's next profiling slot is granted;
     * the SLO-debt-first policy prioritizes the deepest debtor.
     */
    void noteSloViolation(const std::string &name);

    /** @name Host-loss fault injection (pass-through to the queue) @{ */
    /** Profiling host @p host dies now: its in-flight grant is
     *  abandoned (not-yet-run members cancelled with
     *  WorkCancelReason::HostLost) and the pool shrinks until
     *  restoreProfilingHost(). Queued work waits for survivors. */
    void failProfilingHost(std::size_t host)
    { _workQueue.failHost(host); }

    /** A dead profiling host comes back, idle. */
    void restoreProfilingHost(std::size_t host)
    { _workQueue.restoreHost(host); }
    /** @} */

    /** Subscribe to completed adaptations. */
    void addListener(AdaptationListener fn);

    /**
     * Attach a trace recorder (docs/OBSERVABILITY.md): forwards to
     * the work queue (pool lanes) and additionally emits, per
     * member on a `svc/<name>` lane, one sim-time `adapt.*` span per
     * completed adaptation (request → deployment, outcome in the
     * name) plus `repo.store` / `repo.adopt` instants for tuner
     * results entering or leaving the repository. Observation only;
     * digests are unchanged. Null detaches.
     */
    void setTrace(obs::TraceRecorder *trace);

    /** Registered services. */
    int services() const { return static_cast<int>(_members.size()); }

    /** Registration index of a member (fatal on unknown name) — the
     *  single name-to-index map fleet-level aggregators share. */
    std::size_t memberIndex(const std::string &name) const;

    /** The slot policy deciding grants. */
    const ProfilingSlotScheduler &scheduler() const
    { return _workQueue.scheduler(); }

    /** Fleet-default host occupancy per adaptation. */
    SimTime defaultSlotDuration() const { return _defaultSlot; }

    /** Size M of the profiling host pool. */
    int profilingHosts() const { return _workQueue.hosts(); }

    /** Pool hosts currently running a slot. */
    int busyHosts() const { return _workQueue.busyHosts(); }

    /** Pool slots consumed so far (signature + tuner). */
    std::uint64_t slotsGranted() const
    { return _workQueue.stats().slotsConsumed(); }

    /** Work items still waiting for a host (batch members each
     *  count; matches the pre-work-queue request count). */
    std::size_t waiting() const { return _workQueue.waitingItems(); }

    /** Tuner grants resolved from a peer's finished tuning instead
     *  of running (zero host occupancy; see runTunerGrant). */
    std::uint64_t tunerAdoptedAtGrant() const
    { return _tunerAdopted; }

    /** The underlying work queue (per-item-kind stats, states). */
    const ProfilingWorkQueue &workQueue() const { return _workQueue; }

    /** Current SLO debt of a member (violating samples since its last
     *  granted slot). */
    double sloDebt(const std::string &name) const;

    /** Largest queueing delay any adaptation has paid so far. */
    SimTime maxQueueDelay() const { return _maxQueueDelay; }

  private:
    struct Member
    {
        std::string name;
        Service *service;
        DejaVuController *controller;
        SimTime slotDuration;
        double sloDebt = 0.0;
        bool detached = false;
    };

    /** Fold one completed adaptation into the running max, trace it
     *  and broadcast it. */
    void complete(const CompletedAdaptation &done);

    /** Lazily created `svc/<name>` trace lane for one member. */
    obs::LaneId memberLane(std::size_t idx);

    /** Submit the §3.6 tuner sequence a controller deferred. */
    void submitTunerWork(std::size_t memberIdx, int classId,
                         int bucket, SimTime estimate);

    /** Slot-start of a granted tuner item. */
    SimTime runTunerGrant(std::size_t memberIdx,
                          const ProfilingWorkQueue::WorkGrant &grant);

    /** A tuner item was withdrawn before running. */
    void onTunerCancelled(std::size_t memberIdx, const WorkItem &item,
                          WorkCancelReason reason);

    SimTime _defaultSlot;
    bool _sharedRepository;
    ProfilingWorkQueue _workQueue;
    std::vector<Member> _members;
    std::unordered_map<std::string, std::size_t> _memberIndex;
    std::uint64_t _tunerAdopted = 0;
    SimTime _maxQueueDelay = 0;
    std::vector<AdaptationListener> _listeners;
    obs::TraceRecorder *_trace = nullptr;
    std::vector<obs::LaneId> _memberLanes;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_FLEET_HH
