/**
 * @file
 * The run harness for one hosted service or N: every service gets
 * its own trace driver and metrics recorder, one FleetSampler samples
 * them all, and everything interleaves on one shared event queue.
 * FleetExperiment::run() is the only place a run is wired, so the
 * single-service case studies (ProvisioningExperiment::run) are
 * one-member fleets.
 *
 * This is the paper's Figure 2 deployment turned into a harness.
 * A member registered with a DejaVu controller adapts through the
 * fleet's pool of M profiling hosts (§3.3's "one or a few machines")
 * under a selectable slot-scheduling policy (FIFO, shortest-job-first,
 * SLO-debt-first, adaptive): every completed adaptation is charged
 * its host-pool queueing delay, and the fleet-wide adaptation-time
 * tails (p50/p95/max) fall out of one summary() call — the yardstick
 * for comparing slot policies and pool sizes (the hosts-vs-p95 knee).
 * A member registered with any other ProvisioningPolicy reacts to its
 * changes and samples directly.
 *
 * The experiment also owns the repository-sharing axis: under
 * RepositorySharing::Shared it holds one SharedRepository and
 * attaches every registered controller, so the
 * fleet-wide hit rate, cross-service hits (tuner runs avoided) and
 * the shared-vs-private comparison come out of the same summary().
 */

#ifndef DEJAVU_EXPERIMENTS_FLEET_EXPERIMENT_HH
#define DEJAVU_EXPERIMENTS_FLEET_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiments/actors.hh"
#include "experiments/experiment.hh"
#include "experiments/fleet.hh"
#include "experiments/sampler.hh"

namespace dejavu {

/**
 * Runs one or more hosted services through the shared event queue.
 */
class FleetExperiment
{
  public:
    /** Per-service outcome: the usual figure series plus the
     *  host-pool queueing statistics. */
    struct ServiceResult
    {
        std::string name;               ///< Registered member name.
        ExperimentResult result;        ///< Full per-service series.
        int adaptations = 0;            ///< Granted slots for this member.
        SimTime maxQueueDelay = 0;      ///< Worst host-pool wait paid.
        RunningStats queueDelaySec;     ///< All waits, in seconds.
    };

    /** Fleet-wide adaptation-time tails under one slot policy,
     *  host-pool size and repository-sharing mode. */
    struct FleetSummary
    {
        std::string policy;             ///< Slot scheduler name.
        std::string sharing;            ///< Repository-sharing mode.
        int services = 0;               ///< Fleet size N.
        int hosts = 0;                  ///< Profiling-pool size M.
        std::uint64_t adaptations = 0;  ///< Completed fleet-wide.
        /** @name Per-item-type pool demand (work-queue stats) @{ */
        /** Pool slots consumed collecting signatures. */
        std::uint64_t signatureSlots = 0;
        /** Pool slots consumed running tuner sequences. */
        std::uint64_t tunerSlots = 0;
        /** Signature collections served by a same-class batch
         *  leader's slot — demand coalesced away. */
        std::uint64_t coalescedSignatures = 0;
        /** Queued tuner items cancelled because a peer's result
         *  landed in the shared repository first. */
        std::uint64_t tunerCancelled = 0;
        /** Tuner grants resolved from a peer's finished tuning at
         *  slot start (zero host occupancy). */
        std::uint64_t tunerAdopted = 0;
        /** @} */
        /** @name Repository aggregate (summed over member handles) @{ */
        std::uint64_t repoLookups = 0;
        std::uint64_t repoHits = 0;
        /** Hits served by an entry another service wrote (repeated
         *  reads of the same entry all count). */
        std::uint64_t repoCrossHits = 0;
        /** Distinct (member, key) pairs served by a peer's write —
         *  allocations no tuner had to produce for that member, i.e.
         *  tuner runs the fleet avoided. Note these tuner runs are
         *  off the §3.3 host pool (each member's own profiler
         *  sandbox), so sharing cuts tuning work, not slot demand. */
        std::uint64_t repoReusedEntries = 0;
        double repoHitRate = 0.0;
        /** @} */
        /** @name Host-loss fault injection @{ */
        std::uint64_t hostsFailed = 0;
        std::uint64_t hostsRestored = 0;
        /** Granted items cancelled because their host died. */
        std::uint64_t cancelledHostLost = 0;
        /** Items stranded in Granted state with no live grant —
         *  must be zero (the host-loss conformance gate). */
        std::uint64_t orphanedItems = 0;
        /** @} */
        double queueDelayP50Sec = 0.0;
        double queueDelayP95Sec = 0.0;
        double queueDelayP999Sec = 0.0;
        double queueDelayMaxSec = 0.0;
        double adaptationP50Sec = 0.0;  ///< Queue delay included.
        double adaptationP95Sec = 0.0;
        /** The tail the BASK-style scenario study is judged at. */
        double adaptationP999Sec = 0.0;
        double adaptationMaxSec = 0.0;
    };

    /** @p policy selects how waiting adaptation requests are granted
     *  profiling hosts; @p profilingHosts is the pool size M;
     *  @p sharing composes member repositories (Shared makes the
     *  experiment own one SharedRepository that every controller
     *  registered through addService() is attached to, and lets the
     *  fleet coalesce same-class signature collections and cancel
     *  reuse-answered tuner items). */
    FleetExperiment(Simulation &sim,
                    SimTime profilingSlot = seconds(10),
                    SlotPolicy policy = SlotPolicy::Fifo,
                    int profilingHosts = 1,
                    RepositorySharing sharing =
                        RepositorySharing::Private);
    ~FleetExperiment();

    /**
     * Register a hosted service whose controller adapts through the
     * profiling host pool. The controller must have completed its
     * learning phase before run(). The trace is copied; @p config
     * carries the same knobs as a single-service experiment.
     * @p profilingSlot is this member's host occupancy per adaptation
     * (0 means the fleet default) — what shortest-job-first sorts by.
     */
    void addService(const std::string &name, Service &service,
                    DejaVuController &controller, LoadTrace trace,
                    ProvisioningExperiment::Config config,
                    SimTime profilingSlot = 0,
                    SimTime arrivalOffset = 0);

    /**
     * Register a hosted service driven by @p policy, which sees every
     * reuse-window workload change and every monitor sample directly
     * (no profiling host pool); it must outlive run(). Its result
     * carries the policy's name and adaptation times.
     */
    void addService(const std::string &name, Service &service,
                    ProvisioningPolicy &policy, LoadTrace trace,
                    ProvisioningExperiment::Config config);

    /**
     * Run every registered service to the end of its configured
     * horizon, interleaved on the shared queue. Results are in
     * registration order.
     */
    std::vector<ServiceResult> run();

    /** Fleet-wide adaptation-time tails; valid after run(). */
    FleetSummary summary() const;

    /**
     * Withdraw a controller member mid-run: cancels its
     * queued/granted profiling work (DejaVuFleet::detachService) and
     * stops its monitor sampling. Other members' schedules are
     * unaffected.
     */
    void detachService(const std::string &name);

    /** The underlying fleet actor (host pool, slot scheduling, debt). */
    DejaVuFleet &fleet() { return _fleet; }
    const DejaVuFleet &fleet() const { return _fleet; }

    /** Registered services. */
    int services() const { return static_cast<int>(_members.size()); }

    /** The repository-sharing mode this fleet runs under. */
    RepositorySharing sharing() const { return _sharing; }

    /** The fleet-level monitor sampler; null before run(). */
    const FleetSampler *sampler() const { return _sampler.get(); }

    /** The fleet-shared repository; null in Private mode. */
    SharedRepository *sharedRepository() { return _sharedRepo.get(); }
    const SharedRepository *sharedRepository() const
    { return _sharedRepo.get(); }

  private:
    /** A controller member's policy: routes workload changes through
     *  the profiling host pool and keeps its pool statistics. */
    class PoolRoute;

    /** One hosted service's actors. */
    struct Member
    {
        std::string name;
        Service *service;
        ProvisioningPolicy *policy;  ///< Reacts to changes and samples.
        PoolRoute *route = nullptr;  ///< Set for controller members.
        LoadTrace trace;
        ProvisioningExperiment::Config config;
        SimTime arrivalOffset = 0;  ///< Jittered trace-hour offset.
        std::unique_ptr<TraceDriver> driver;
        std::unique_ptr<MetricsRecorder> recorder;
    };

    /** Append a member; @p config's horizon is resolved here. */
    Member &addMember(const std::string &name, Service &service,
                      LoadTrace trace,
                      ProvisioningExperiment::Config config,
                      SimTime arrivalOffset);

    Simulation &_sim;
    DejaVuFleet _fleet;
    RepositorySharing _sharing;
    /** Shared backing store for every member recorder's plot series
     *  (five streams per member, in registration order). */
    SeriesArena _series;
    /** Every completed adaptation's queue delay and total time, in
     *  seconds (16 B per adaptation): the fleet-wide tails. */
    PercentileSampler _queueDelaySec;
    PercentileSampler _adaptationSec;
    std::unique_ptr<FleetSampler> _sampler;
    /** Owned under Shared sharing; every controller registered
     *  through addService() is attached to it. Callers must keep the
     *  experiment alive as long as those controllers' handles are
     *  used (FleetStack does). */
    std::unique_ptr<SharedRepository> _sharedRepo;
    /** First-registered SLO per kind — sharing requires same-kind
     *  members to agree (addService() is fatal on a mismatch). */
    std::map<ServiceKind, Slo> _kindSlo;
    /** In registration order, which is also sampler index order. */
    std::vector<std::unique_ptr<Member>> _members;
    /** Controller members' routes, indexed in lockstep with the
     *  fleet's member table; lookups go through
     *  DejaVuFleet::memberIndex(). */
    std::vector<std::unique_ptr<PoolRoute>> _routes;
    bool _ran = false;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_FLEET_EXPERIMENT_HH
