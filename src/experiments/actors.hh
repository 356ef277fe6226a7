/**
 * @file
 * Event-queue actors that make a provisioning experiment: the manual
 * `for (hour) { while (monitorPeriod) ... }` harness is decomposed
 * into independent actors interleaving on one Simulation queue —
 *
 *  - TraceDriver: applies the hourly trace workload to one service
 *    (Driver band — the last word at an hour boundary);
 *  - MonitorProbe: fine-grained production sampling between changes
 *    (Probe band — observes same-instant reconfigurations);
 *  - PolicyActor: adapts a ProvisioningPolicy to the event runtime;
 *  - MetricsRecorder: accumulates every series and reuse-window
 *    aggregate a case-study figure needs.
 *
 * Because each service gets its own driver/probe/policy/recorder
 * quartet and they all share the queue, N services and N controllers
 * interleave deterministically in a single run — the fleet deployment
 * of the paper's Figure 2 is just N registrations.
 */

#ifndef DEJAVU_EXPERIMENTS_ACTORS_HH
#define DEJAVU_EXPERIMENTS_ACTORS_HH

#include <functional>
#include <vector>

#include "common/arena.hh"
#include "baselines/policy.hh"
#include "experiments/experiment.hh"
#include "services/service.hh"
#include "sim/actor.hh"
#include "sim/energy.hh"
#include "workload/trace.hh"

namespace dejavu {

/**
 * Applies the hourly trace workload to a service and notifies
 * listeners of each change.
 */
class TraceDriver : public Actor
{
  public:
    struct Config
    {
        int totalHours = 0;        ///< Hours [0, totalHours) replayed.
        double peakClients = 1.0;  ///< Clients at trace value 1.0.
        /** Arrival jitter: trace hour h is applied at
         *  h * kHour + startOffset instead of on the exact hour
         *  boundary (must stay within the hour). De-synchronizing
         *  the members of a fleet spreads the hourly burst the
         *  profiling pool otherwise absorbs all at once. */
        SimTime startOffset = 0;
    };

    using ChangeListener =
        std::function<void(int hour, const Workload &)>;

    TraceDriver(Simulation &sim, Service &service,
                const LoadTrace &trace, Config config,
                std::string name = "trace-driver");

    /** Subscribe to workload changes (called after setWorkload, in
     *  registration order). */
    void addListener(ChangeListener fn);

    /** Workload the driver deploys for a trace hour. */
    Workload workloadAtHour(int hour) const;

    /** The hour-h workload of any (service, trace, peak) triple — the
     *  single definition shared by drivers, experiments and learning-
     *  phase setup. */
    static Workload workloadFor(const Service &service,
                                const LoadTrace &trace,
                                double peakClients, int hour);

    const Config &config() const { return _config; }
    int hoursDriven() const { return _hour; }

  protected:
    void onStart() override;

  private:
    void applyHour();

    Service &_service;
    const LoadTrace &_trace;
    Config _config;
    int _hour = 0;
    EventId _event = kInvalidEvent;
    std::vector<ChangeListener> _listeners;
};

/**
 * Source of production monitor samples for one service. Both the
 * per-service MonitorProbe actor and the fleet-level FleetSampler's
 * per-member feeds implement this, so policies and recorders are
 * wired the same way whichever sampling engine drives a run.
 */
class SampleFeed
{
  public:
    using SampleListener =
        std::function<void(int hour, const Service::PerfSample &)>;

    virtual ~SampleFeed() = default;

    /** Subscribe to samples (one shared sample per tick, listeners in
     *  registration order). */
    virtual void addListener(SampleListener fn) = 0;

    /** Samples delivered so far. */
    virtual std::uint64_t samplesTaken() const = 0;

    /** Permanently stop sampling this service: no further ticks are
     *  delivered (pending chain events become no-ops). */
    virtual void detach() = 0;
};

/**
 * Production monitoring: samples the service postChangeProbe after
 * each workload change (catching the adaptation-window spike), then
 * every monitorPeriod until the hour ends.
 */
class MonitorProbe : public Actor, public SampleFeed
{
  public:
    struct Config
    {
        SimTime monitorPeriod = minutes(1);
        SimTime postChangeProbe = seconds(30);
    };

    using SampleListener = SampleFeed::SampleListener;

    MonitorProbe(Simulation &sim, Service &service, TraceDriver &driver,
                 Config config, std::string name = "monitor-probe");

    void addListener(SampleListener fn) override;

    std::uint64_t samplesTaken() const override { return _samples; }

    void detach() override { _detached = true; }

  private:
    void tick();

    Service &_service;
    Config _config;
    int _hour = 0;
    SimTime _chainEnd = 0;  ///< This hour's chain samples until here.
    bool _detached = false;
    std::uint64_t _samples = 0;
    std::vector<SampleListener> _listeners;
};

/**
 * Adapts a ProvisioningPolicy to the actor runtime: forwards reuse-
 * window workload changes and every monitor sample.
 */
class PolicyActor : public Actor
{
  public:
    PolicyActor(Simulation &sim, ProvisioningPolicy &policy,
                TraceDriver &driver, SampleFeed &probe,
                int reuseStartHour);

    ProvisioningPolicy &policy() { return _policy; }

  private:
    ProvisioningPolicy &_policy;
    int _reuseStartHour;
};

/**
 * Accumulates the per-tick series and reuse-window aggregates of an
 * ExperimentResult for one service.
 */
class MetricsRecorder : public Actor
{
  public:
    struct Config
    {
        int reuseStartHour = 24;
        Slo slo = Slo::latency(60.0);
        /** When false, only the reuse-window aggregates are kept (no
         *  per-tick series, and so no p95 latency) — a 10k-service
         *  fleet's series would otherwise dominate peak RSS. The
         *  recorder's memory is then constant in simulated time. */
        bool recordSeries = true;
    };

    /**
     * @p arena backs this recorder's five per-tick series; pass the
     * fleet-shared arena so all members' samples land in one chunked
     * slab pool (streams are claimed in construction order — service
     * id order in a fleet). Null makes the recorder use a private
     * arena, for single-service experiments.
     */
    MetricsRecorder(Simulation &sim, Service &service,
                    const LoadTrace &trace, TraceDriver &driver,
                    SampleFeed &probe, Config config,
                    std::string name = "metrics-recorder",
                    SeriesArena *arena = nullptr);

    /** Yardstick allocation for the always-full-capacity energy
     *  meter; read from the cluster after the learning deployment. */
    void setMaxAllocation(const ResourceAllocation &alloc)
    { _maxAlloc = alloc; }

    /** Aggregate everything recorded so far (reuse window only) into
     *  a result; series are copied out. Cost/energy integrals stop at
     *  this recorder's own horizon even if the simulation (e.g. a
     *  fleet with a longer-running member) advanced further. The
     *  reuse-window p95 latency is read from the latency series, so
     *  it is NaN when series are off. Calling it again returns the
     *  same result. */
    ExperimentResult finish() const;

  protected:
    void onStart() override;

  private:
    void onChange(int hour, const Workload &workload);
    void onTick(int hour, const Service::PerfSample &sample);

    /** Arena stream roles; one stream per plotted series. */
    enum Series
    {
        kLatencyMs = 0,
        kQosPercent,
        kInstances,
        kComputeUnits,
        kLoadFraction,
        kNumSeries
    };

    Service &_service;
    const LoadTrace &_trace;
    Config _config;
    int _totalHours;

    SeriesArena _ownArena;           ///< Used when no shared arena.
    SeriesArena *_arena;             ///< Where the series land.
    SeriesArena::StreamId _streams[kNumSeries] = {};
    /** Reuse-window latencies summed in tick order; finish()
     *  divides by _reuseTicks for the mean. */
    double _reuseLatencySum = 0.0;
    RunningStats _reuseQos;
    std::size_t _violations = 0;
    /** Ticks in the reuse window. Hours only grow, so these are the
     *  last _reuseTicks points of every series. */
    std::size_t _reuseTicks = 0;

    EnergyModel _energyModel;
    EnergyMeter _energyMeter, _maxEnergyMeter;
    ResourceAllocation _maxAlloc;
    double _costAtReuseStart = 0.0;
    double _energyAtReuseStart = 0.0;
    double _maxEnergyAtReuseStart = 0.0;

    /** End-of-horizon snapshot (billing can only be read "at now",
     *  so an event freezes the totals when this recorder's own
     *  trace ends). */
    bool _frozen = false;
    double _finalCost = 0.0;
    double _finalEnergy = 0.0;
    double _finalMaxEnergy = 0.0;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_ACTORS_HH
