/**
 * @file
 * Production monitor sampling for every run, one service or 10k.
 *
 * Services register with one FleetSampler actor: their chain starts
 * (driver changes) and periodic re-arms append the member index to a
 * per-instant bucket, and a single Probe-band event per distinct due
 * instant drains the whole bucket in one dispatch — so the event
 * queue carries one sampling event per instant, not one per sample.
 *
 * A drain splits every tick in two (the listener split is
 * TickListener, actors.hh):
 *  - observe: the member's sample() and each listener's member-local
 *    observe(), in subscription order until one must act. Members
 *    are independent here, so with a worker pool attached (setPool)
 *    the due list is cut into contiguous shares, one per worker, and
 *    a member's state stays on one core from drain to drain. The
 *    phase runs inside a MemberLocalScope (common/parallel.hh), which
 *    makes event scheduling, work-queue, repository and fleet calls
 *    panic;
 *  - act: on the run thread, in due order, every tick a listener
 *    handed over replays from that listener on (act()), then the
 *    members still inside their chain re-arm.
 * One worker runs the same two phases, so a drain computes the same
 * bytes at any worker count.
 *
 * The schedule is a contract the goldens pin
 * (test_fleet_sampler's ScheduleIsPinned, the fleet and single-service
 * GoldenRun tests):
 *  - a member samples postChangeProbe after each workload change of
 *    its driver, then every monitorPeriod while the next tick still
 *    lands within one trace hour of that change;
 *  - bucket appends happen inside the triggering events (driver
 *    changes, previous ticks) and a bucket drains in append order, so
 *    same-instant members sample in the order their triggers fired;
 *  - the drain event is Probe band, so at an instant deployments
 *    (Normal) come first, samples next and Driver changes last. A
 *    chain start with a zero post-change probe, appended from a
 *    Driver event at T, still samples at T *after* that change and
 *    before the remaining same-instant Driver events;
 *  - per member, listener order holds; acts run in due order. An act
 *    must not change what another member's sample or observe reads
 *    (its effects reach other members through events), which is
 *    what lets every member observe before any acts.
 */

#ifndef DEJAVU_EXPERIMENTS_SAMPLER_HH
#define DEJAVU_EXPERIMENTS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "experiments/actors.hh"
#include "obs/trace.hh"

namespace dejavu {

/**
 * One sampling engine for a whole run: members register once and are
 * drained in batches. A member is addressed by the index
 * registerService() returned and stays registered for the whole run.
 */
class FleetSampler : public Actor
{
  public:
    /** Production monitoring cadence of one member. */
    struct Cadence
    {
        SimTime monitorPeriod = minutes(1);
        /** Extra early sample after each change (catches the
         *  adaptation-window spike); must fall within the hour. */
        SimTime postChangeProbe = seconds(30);
    };

    using SampleListener =
        std::function<void(int hour, const Service::PerfSample &)>;

    explicit FleetSampler(Simulation &sim,
                          std::string name = "fleet-sampler");
    ~FleetSampler() override;

    /** Pre-size the member tables for @p n registrations. */
    void reserveServices(std::size_t n);

    /**
     * Register a service: its sampling chain restarts on every change
     * of @p driver, with @p cadence. Returns the member's index
     * (registration order).
     */
    std::size_t registerService(Service &service, TraceDriver &driver,
                                Cadence cadence);

    /** Subscribe @p listener to member @p index's samples (one shared
     *  sample per tick, listeners in subscription order). Not owned;
     *  it must outlive the run and serve this member only. */
    void addListener(std::size_t index, TickListener &listener);

    /** Subscribe a plain function: it acts on every tick. */
    void addListener(std::size_t index, SampleListener fn);

    /** Observe on @p pool's workers from the next drain on (null:
     *  on the run thread). The pool must outlive those drains, and
     *  no two members may share a service. */
    void setPool(WorkerPool *pool);

    /** Record wall-time `drain.observe` and `drain.act` spans per
     *  drain on a `phase/run` lane (null detaches). */
    void setTrace(obs::TraceRecorder *trace);

    /** Samples delivered to member @p index so far. */
    std::uint64_t samplesTaken(std::size_t index) const
    { return _memberSamples[index]; }

    /** Members registered. */
    std::size_t services() const { return _state.size(); }

    /** Samples delivered run-wide. */
    std::uint64_t samplesTaken() const { return _samples; }

    /** The most workers one drain's observe phase ran on, by the
     *  pool's own count (1 while every drain ran on the run thread). */
    int peakDrainWorkers() const { return _peakWorkers; }

  private:
    /** Per-member chain state, indexed by registration order. Only
     *  driver changes write it, so a drain's workers and its run
     *  thread all read it from their own caches. */
    struct MemberState
    {
        Service *service = nullptr;
        SimTime period = 0;
        SimTime postChange = 0;
        SimTime chainEnd = 0;  ///< This hour's chain samples until here.
        int hour = 0;
    };

    /** A tick a listener handed to the act phase: that listener and
     *  the ones after it replay it. */
    struct Act
    {
        std::uint32_t index;
        std::uint32_t from;  ///< First listener to act.
        int hour;
        Service::PerfSample sample;
    };

    /** The ticks one worker's observe phase hands to the act phase,
     *  from its contiguous slice of the due list. A worker writes
     *  only its own share; the alignment keeps shares off each
     *  other's cache lines. */
    struct alignas(64) Share
    {
        std::vector<Act> acts;
    };

    /** A plain function listener: acts on every tick. */
    class FunctionListener;

    /** Append @p index to the bucket at @p t and keep the drain event
     *  armed at the earliest bucket. Appends to the bucket appended to
     *  last skip the map lookup: every re-arm of one drain lands on
     *  the same now + period. */
    void enqueue(std::uint32_t index, SimTime t);

    /** (Re)arm the drain event at the earliest bucket instant. */
    void armNext();

    /** Drain the bucket at now(): observe every due member, then act
     *  and re-arm in due order. */
    void fireDue();

    /** The observe phase for due[begin, end) into @p share. */
    void observe(const std::vector<std::uint32_t> &due,
                 std::size_t begin, std::size_t end, Share &share);

    std::vector<MemberState> _state;
    /** Samples per member; written by the member's drain worker. */
    std::vector<std::uint64_t> _memberSamples;
    std::vector<std::vector<TickListener *>> _listeners;
    std::vector<std::unique_ptr<FunctionListener>> _functions;
    /** Due instant -> member indices in trigger order. */
    using BucketMap = std::map<SimTime, std::vector<std::uint32_t>>;
    BucketMap _buckets;
    /** The bucket enqueue() appended to last; end() once fireDue()
     *  erased it. */
    BucketMap::iterator _lastBucket = _buckets.end();
    std::vector<std::vector<std::uint32_t>> _bucketPool;
    std::vector<Share> _shares;
    EventId _event = kInvalidEvent;
    SimTime _eventAt = 0;
    bool _draining = false;
    std::uint64_t _samples = 0;
    WorkerPool *_pool = nullptr;
    int _peakWorkers = 1;
    obs::TraceRecorder *_trace = nullptr;
    obs::LaneId _runLane = 0;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_SAMPLER_HH
