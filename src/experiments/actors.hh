/**
 * @file
 * The per-service actors of a run, wired by FleetExperiment::run()
 * for one service or N on one Simulation queue:
 *
 *  - TraceDriver: applies the hourly trace workload to one service
 *    (Driver band — the last word at an hour boundary);
 *  - MetricsRecorder: accumulates every series and reuse-window
 *    aggregate a case-study figure needs.
 *
 * Monitor samples come from the run's one FleetSampler
 * (experiments/sampler.hh), and the member's ProvisioningPolicy
 * reacts to changes and samples through plain listeners, so a run is
 * `2N + 2` actors: a driver and a recorder per service, the sampler
 * and the DejaVuFleet that owns the profiling host pool.
 */

#ifndef DEJAVU_EXPERIMENTS_ACTORS_HH
#define DEJAVU_EXPERIMENTS_ACTORS_HH

#include <functional>
#include <vector>

#include "common/arena.hh"
#include "experiments/experiment.hh"
#include "services/service.hh"
#include "sim/actor.hh"
#include "sim/energy.hh"
#include "workload/trace.hh"

namespace dejavu {

class FleetSampler;

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
     * Records member @p member of @p sampler. @p arena backs this
     * recorder's five per-tick series; pass the run-shared arena so
     * all members' samples land in one chunked slab pool (streams are
     * claimed in construction order — service id order in a fleet).
     * Null makes the recorder use a private arena.
     */
    MetricsRecorder(Simulation &sim, Service &service,
                    const LoadTrace &trace, TraceDriver &driver,
                    FleetSampler &sampler, std::size_t member,
                    Config config,
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
