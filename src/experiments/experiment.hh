/**
 * @file
 * The provisioning experiment: replays a multi-day load trace against
 * a service under a provisioning policy, exactly as the paper's case
 * studies do — hourly workload changes (the trace granularity),
 * fine-grained production monitoring in between, and bookkeeping for
 * every series the figures plot (instance counts, latency/QoS versus
 * SLO, cost, savings, adaptation times).
 *
 * A case study is the paper's Figure 2 deployment with one hosted
 * service: run() registers the service and policy as the one member
 * of a FleetExperiment (experiments/fleet_experiment.hh), whose run()
 * is the single place a run is wired and sampled.
 */

#ifndef DEJAVU_EXPERIMENTS_EXPERIMENT_HH
#define DEJAVU_EXPERIMENTS_EXPERIMENT_HH

#include <vector>

#include "baselines/policy.hh"
#include "common/stats.hh"
#include "services/service.hh"
#include "services/slo.hh"
#include "sim/simulation.hh"
#include "workload/trace.hh"

namespace dejavu {

/**
 * One point of a plotted time series.
 */
struct SeriesPoint
{
    double timeHours = 0.0;
    double value = 0.0;
};

/**
 * Everything a case-study figure needs.
 */
struct ExperimentResult
{
    std::string policyName;

    /** @name Per-monitor-tick series (reuse + learning days) @{ */
    std::vector<SeriesPoint> latencyMs;
    std::vector<SeriesPoint> qosPercent;
    std::vector<SeriesPoint> instances;
    std::vector<SeriesPoint> computeUnits;
    std::vector<SeriesPoint> loadFraction;
    /** @} */

    /** @name Reuse-window aggregates @{ */
    double sloViolationFraction = 0.0;
    double meanLatencyMs = 0.0;
    /** Read from the latency series: NaN when the run recorded none
     *  (Config::recordSeries off, as in large fleets). */
    double p95LatencyMs = 0.0;
    double meanQosPercent = 0.0;
    double costDollars = 0.0;       ///< Accrued over the reuse window.
    double maxCostDollars = 0.0;    ///< Always-full-capacity yardstick.
    double savingsPercent = 0.0;    ///< 100 * (1 - cost / maxCost).
    double energyKwh = 0.0;         ///< Consumed over the reuse window.
    double maxEnergyKwh = 0.0;      ///< Always-full-capacity draw.
    double energySavingsPercent = 0.0;
    /** @} */

    /** Adaptation-time stats (seconds), from the policy. */
    RunningStats adaptationSec;
};

/**
 * Drives one policy over one trace.
 */
class ProvisioningExperiment
{
  public:
    struct Config
    {
        /** Hours [0, reuseStartHour) are the learning phase; the
         *  aggregates above only cover the reuse window, matching the
         *  paper ("the remaining 6 days are used to evaluate..."). */
        int reuseStartHour = 24;
        /** Stop after this many trace hours (default: whole trace). */
        int totalHours = -1;
        /** Clients at trace value 1.0. */
        double peakClients = 10000.0;
        /** Production monitoring cadence. */
        SimTime monitorPeriod = minutes(1);
        /** Extra early sample after each change (catches the
         *  adaptation-window latency spike the paper plots). */
        SimTime postChangeProbe = seconds(30);
        Slo slo = Slo::latency(60.0);
        /** Allocation deployed during the learning day. */
        ResourceAllocation learningAllocation{10, InstanceType::Large};
        /** Keep the per-tick plot series (latency/QoS/instances/...).
         *  Huge-fleet sweeps turn this off: aggregates survive except
         *  p95LatencyMs (NaN), and peak RSS stops scaling with tick
         *  count. */
        bool recordSeries = true;
    };

    ProvisioningExperiment(Simulation &sim, Service &service,
                           LoadTrace trace, Config config);

    /** Run the full trace under @p policy. */
    ExperimentResult run(ProvisioningPolicy &policy);

    /** All learning-day workloads (one per hour). */
    std::vector<Workload> learningWorkloads() const
    { return learningWorkloads(_service, _trace, _config); }

    /** Hours [0, config.reuseStartHour) of @p trace as @p service's
     *  workloads — the one learning-phase definition single-service
     *  and fleet learning share. */
    static std::vector<Workload> learningWorkloads(
        const Service &service, const LoadTrace &trace,
        const Config &config);

    const Config &config() const { return _config; }
    const LoadTrace &trace() const { return _trace; }

  private:
    Simulation &_sim;
    Service &_service;
    LoadTrace _trace;
    Config _config;
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_EXPERIMENT_HH
