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
 *  - a sample's listeners run in subscription order before the next
 *    member in the bucket samples.
 */

#ifndef DEJAVU_EXPERIMENTS_SAMPLER_HH
#define DEJAVU_EXPERIMENTS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "experiments/actors.hh"

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

    /** Pre-size the member tables for @p n registrations. */
    void reserveServices(std::size_t n);

    /**
     * Register a service: its sampling chain restarts on every change
     * of @p driver, with @p cadence. Returns the member's index
     * (registration order).
     */
    std::size_t registerService(Service &service, TraceDriver &driver,
                                Cadence cadence);

    /** Subscribe to member @p index's samples (one shared sample per
     *  tick, listeners in subscription order). */
    void addListener(std::size_t index, SampleListener fn);

    /** Samples delivered to member @p index so far. */
    std::uint64_t samplesTaken(std::size_t index) const
    { return _state[index].samples; }

    /** Members registered. */
    std::size_t services() const { return _state.size(); }

    /** Samples delivered run-wide. */
    std::uint64_t samplesTaken() const { return _samples; }

  private:
    /** Per-member chain state, indexed by registration order. */
    struct MemberState
    {
        Service *service = nullptr;
        SimTime period = 0;
        SimTime postChange = 0;
        SimTime chainEnd = 0;  ///< This hour's chain samples until here.
        int hour = 0;
        std::uint64_t samples = 0;
    };

    /** Append @p index to the bucket at @p t and keep the drain event
     *  armed at the earliest bucket. Appends to the bucket appended to
     *  last skip the map lookup: every re-arm of one drain lands on
     *  the same now + period. */
    void enqueue(std::uint32_t index, SimTime t);

    /** (Re)arm the drain event at the earliest bucket instant. */
    void armNext();

    /** Drain the bucket at now(): sample every due member in append
     *  order, re-arming each member still inside its chain. */
    void fireDue();

    std::vector<MemberState> _state;
    std::vector<std::vector<SampleListener>> _listeners;
    /** Due instant -> member indices in trigger order. */
    using BucketMap = std::map<SimTime, std::vector<std::uint32_t>>;
    BucketMap _buckets;
    /** The bucket enqueue() appended to last; end() once fireDue()
     *  erased it. */
    BucketMap::iterator _lastBucket = _buckets.end();
    std::vector<std::vector<std::uint32_t>> _bucketPool;
    EventId _event = kInvalidEvent;
    SimTime _eventAt = 0;
    bool _draining = false;
    std::uint64_t _samples = 0;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_SAMPLER_HH
