/**
 * @file
 * Fleet-level batched monitor sampling.
 *
 * The per-service MonitorProbe schedules one one-shot Probe-band event
 * per sample — at 10k services and a 1-minute cadence that is ~10k
 * heap pushes, pops and closure invocations per simulated minute, and
 * the event queue becomes the fleet's bottleneck. The FleetSampler
 * collapses all of it into *one* actor: services register with it,
 * their chain starts (driver changes) and periodic re-arms append the
 * member index to a per-instant bucket, and a single Probe-band event
 * per distinct due instant drains the whole bucket in one dispatch.
 *
 * Equivalence with the per-probe path is exact, not approximate:
 *  - bucket appends happen inside the same triggering events (driver
 *    changes, previous ticks) that would have scheduled the per-probe
 *    one-shot, so append order equals per-probe insertion order and
 *    draining in append order reproduces the per-probe intra-instant
 *    firing order;
 *  - the drain event is Probe band, so cross-band ordering at an
 *    instant (Normal deployments first, samples next, Driver changes
 *    last) is unchanged — including the zero post-change-probe case,
 *    where a chain start scheduled from a Driver event at instant T
 *    fires its sample at T before the remaining same-instant Driver
 *    events, exactly as MonitorProbe's `after(0, ...)` does;
 *  - per-member chain state (chainEnd, hour, jittered start offsets)
 *    carries over verbatim.
 * A fleet therefore samples exactly as one MonitorProbe per service
 * would (test_fleet_sampler checks it against MonitorProbe directly).
 */

#ifndef DEJAVU_EXPERIMENTS_SAMPLER_HH
#define DEJAVU_EXPERIMENTS_SAMPLER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "experiments/actors.hh"

namespace dejavu {

/**
 * One sampling engine for a whole fleet: members register once and
 * are drained in batches. Feeds returned by registerService() stay
 * valid for the sampler's lifetime; detach() deregisters a member
 * (mid-slot detach included — already-bucketed indices are skipped
 * lazily on drain).
 */
class FleetSampler : public Actor
{
  public:
    explicit FleetSampler(Simulation &sim,
                          std::string name = "fleet-sampler");

    /** Pre-size the member tables for @p n registrations. */
    void reserveServices(std::size_t n);

    /**
     * Register a service: its sampling chain restarts on every change
     * of @p driver, with @p config's cadence (same semantics as a
     * dedicated MonitorProbe). Returns the member's feed.
     */
    SampleFeed &registerService(Service &service, TraceDriver &driver,
                                MonitorProbe::Config config);

    /** Members ever registered (detached ones included). */
    std::size_t services() const { return _state.size(); }

    /** Members registered and not detached. */
    std::size_t liveServices() const;

    /** Samples delivered fleet-wide. */
    std::uint64_t samplesTaken() const { return _samples; }

  private:
    /** Per-member handle fronting the shared sampler. */
    class MemberFeed : public SampleFeed
    {
      public:
        MemberFeed(FleetSampler &sampler, std::uint32_t index)
            : _sampler(sampler), _index(index)
        {}

        void addListener(SampleListener fn) override
        { _sampler._listeners[_index].push_back(std::move(fn)); }

        std::uint64_t samplesTaken() const override
        { return _sampler._state[_index].samples; }

        void detach() override
        { _sampler.detachMember(_index); }

      private:
        FleetSampler &_sampler;
        std::uint32_t _index;
    };

    /** Per-member chain state, SoA-indexed by registration order. */
    struct MemberState
    {
        Service *service = nullptr;
        SimTime period = 0;
        SimTime postChange = 0;
        SimTime chainEnd = 0;  ///< This hour's chain samples until here.
        int hour = 0;
        std::uint64_t samples = 0;
        bool live = true;
    };

    void detachMember(std::uint32_t index);

    /** Append @p index to the bucket at @p t and keep the drain event
     *  armed at the earliest bucket. */
    void enqueue(std::uint32_t index, SimTime t);

    /** (Re)arm the drain event at the earliest bucket instant. */
    void armNext();

    /** Drain the bucket at now(): sample every live due member in
     *  append order, re-arming each member still inside its chain. */
    void fireDue();

    std::vector<MemberState> _state;
    std::vector<std::vector<SampleFeed::SampleListener>> _listeners;
    std::deque<MemberFeed> _feeds;  ///< Stable addresses for callers.
    /** Due instant -> member indices in per-probe insertion order. */
    std::map<SimTime, std::vector<std::uint32_t>> _buckets;
    std::vector<std::vector<std::uint32_t>> _bucketPool;
    EventId _event = kInvalidEvent;
    SimTime _eventAt = 0;
    bool _draining = false;
    std::uint64_t _samples = 0;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_SAMPLER_HH
