/**
 * @file
 * Canned experiment scenarios: one-stop construction of the full
 * simulation stack (cloud, service, profiler, DejaVu controller,
 * experiment config) for the paper's case studies, so every bench,
 * example and integration test builds the *same* system.
 *
 *  - Cassandra scale-out (§4.1): 1..10 large instances, update-heavy
 *    YCSB mix, 60 ms latency SLO, Messenger/HotMail traces.
 *  - SPECweb scale-up (§4.2): 10 instances toggling large/extra-large,
 *    support mix, QoS >= 95%.
 *  - RUBiS (Figs. 1/4b, Table 1, §4.4): three-tier auction service.
 *
 * One factory builds every service's stack: a single-service case
 * study is member 0 of a one-service fleet, built exactly as
 * FleetBuilder builds each of its members.
 */

#ifndef DEJAVU_EXPERIMENTS_SCENARIO_HH
#define DEJAVU_EXPERIMENTS_SCENARIO_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dejavu.hh"
#include "experiments/dejavu_policy.hh"
#include "obs/trace.hh"
#include "experiments/experiment.hh"
#include "experiments/fleet_experiment.hh"
#include "experiments/host_loss.hh"
#include "sim/daemon.hh"
#include "sim/interference.hh"

namespace dejavu {

/** Options shared by the scenario factories. */
struct ScenarioOptions
{
    std::uint64_t seed = 42;
    std::string traceName = "messenger";  ///< "messenger" | "hotmail".
    int days = 7;
    bool interference = false;            ///< Inject co-located load.
    bool interferenceDetection = true;    ///< DejaVu's §3.6 machinery.
    /** Build a BASK-style background daemon (periodic dedup/scan
     *  duty cycle) on every member's cluster — a distinct mechanism
     *  from the §4.3 injector, composable with it (see
     *  DaemonCoRunner). */
    bool daemons = false;
    /** Fleet scenarios only: arm a deterministic profiling-host
     *  kill/restore schedule (see HostLossSchedule). */
    bool hostLoss = false;
    /** Target utilization of full capacity at trace peak. */
    double peakUtilization = 0.72;
};

/**
 * A fully wired simulation stack. Members are ordered for correct
 * construction/destruction; everything lives on the heap so the stack
 * can be returned from factories.
 */
struct ScenarioStack
{
    std::unique_ptr<Simulation> sim;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<Service> service;
    std::unique_ptr<ProfilerHost> profiler;
    std::unique_ptr<InterferenceInjector> injector;  ///< May be null.
    /** Null unless ScenarioOptions::daemons; the caller starts it. */
    std::unique_ptr<DaemonCoRunner> daemon;
    std::unique_ptr<DejaVuController> controller;
    std::unique_ptr<ProvisioningExperiment> experiment;
    LoadTrace trace;
    DejaVuController::Config controllerConfig;

    /** Convenience: run the learning phase on day-1 workloads. */
    DejaVuController::LearningReport learnDayOne();
};

/** The trace by name ("messenger" or "hotmail"). */
LoadTrace scenarioTrace(const std::string &name, int days,
                        std::uint64_t seed);

/** Cassandra scale-out case study (§4.1 / Figures 6, 7, 8, 11). */
std::unique_ptr<ScenarioStack> makeCassandraScaleOut(
    const ScenarioOptions &options);

/** SPECweb scale-up case study (§4.2 / Figures 9, 10). */
std::unique_ptr<ScenarioStack> makeSpecWebScaleUp(
    const ScenarioOptions &options);

/**
 * RUBiS stack: cluster of 10 large, bidding mix, 150 ms SLO, default
 * options otherwise. Used by the motivation experiment, the signature
 * studies and the proxy-overhead measurement.
 */
std::unique_ptr<ScenarioStack> makeRubisStack(std::uint64_t seed);

/**
 * One hosted service of a fleet scenario: a full per-service stack
 * sharing the fleet's Simulation, plus its own trace.
 */
struct FleetMember
{
    std::string name;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<Service> service;
    std::unique_ptr<ProfilerHost> profiler;
    /** Co-located tenant pressure (§4.3); null unless the builder's
     *  options enable interference. Start via
     *  FleetStack::startInjectors(). */
    std::unique_ptr<InterferenceInjector> injector;
    /** Background dedup/scan daemon; null unless the builder's
     *  options enable daemons. Started by
     *  FleetStack::startInjectors() alongside the injector. */
    std::unique_ptr<DaemonCoRunner> daemon;
    std::unique_ptr<DejaVuController> controller;
    LoadTrace trace;
    ProvisioningExperiment::Config experimentConfig;
    SimTime profilingSlot = 0;  ///< Host occupancy per adaptation.
    /** Jittered change arrival: this member's trace hours fire at
     *  hour boundaries plus this offset (see
     *  FleetBuilder::arrivalJitter). */
    SimTime arrivalOffset = 0;
};

/**
 * A multi-service deployment (the paper's Figure 2): N hosted
 * services on one Simulation, wired to a FleetExperiment whose
 * adaptation requests queue for the pool of M profiling hosts.
 */
struct FleetStack
{
    std::unique_ptr<Simulation> sim;
    std::vector<std::unique_ptr<FleetMember>> members;
    std::unique_ptr<FleetExperiment> experiment;
    /** Profiling-host kill/restore schedule; null unless the
     *  builder's options enable host loss. Armed by
     *  startInjectors(). */
    std::unique_ptr<HostLossSchedule> hostLoss;
    /** Attached trace recorder (null = tracing off); set via
     *  attachTrace(). Not owned. */
    obs::TraceRecorder *trace = nullptr;

    /**
     * Attach a trace recorder (docs/OBSERVABILITY.md): sim-time
     * lanes for the profiling pool and per-service adaptations (via
     * DejaVuFleet::setTrace), plus wall-time `learn.prepare` /
     * `learn.finalize` spans from learnAll(). Recording observes
     * only — digests are byte-identical with and without it.
     */
    void attachTrace(obs::TraceRecorder &recorder);

    /**
     * Run every member's learning phase on its day-1 workloads.
     * @p threads > 1 runs the member-local half (profiling,
     * clustering, classifier training — see
     * DejaVuController::prepareLearning) across that many worker
     * threads; the repository probe/tuner/store half then always runs
     * sequentially in member order, so results are bit-identical at
     * any thread count (including shared-repository fleets).
     */
    void learnAll(int threads = 1);

    /** Begin every member's fault/pressure schedules: interference
     *  injection, background daemons and the host-loss schedule
     *  (each a no-op where not built). */
    void startInjectors();
};

/**
 * One requested member of a FleetBuilder fleet. Everything optional
 * defaults from the service kind or the builder's ScenarioOptions, so
 * `add(ServiceKind::Rubis)` is a complete spec and a fully custom
 * member (own SLO, trace, profiling slot) is still one struct.
 */
struct FleetMemberSpec
{
    ServiceKind kind = ServiceKind::KeyValue;
    std::string name;           ///< Auto ("svc-A", ...) when empty.
    std::string traceName;      ///< Empty: the builder's trace.
    SimTime profilingSlot = 0;  ///< 0: builder default or kind hint.
    std::optional<Slo> slo;     ///< Unset: the kind's default SLO.
    /** Unset: the kind's default request mix. Lets one kind span
     *  several mixes (the YCSB fleet cycles its four core
     *  workloads), at the cost of distinct per-mix signatures —
     *  sound under private repositories. */
    std::optional<RequestMix> mix;
    /** Target utilization at trace peak; 0 means the kind default
     *  (the builder's value, except SpecWeb which anchors its
     *  Large/XLarge boundary on the QoS knee instead). */
    double peakUtilization = 0.0;
};

/**
 * Composes heterogeneous fleets: mixed SPECweb + RUBiS + KeyValue
 * members with per-member SLOs, traces and profiling-slot durations,
 * under a selectable §3.3 slot-scheduling policy and profiling
 * host-pool size. Per-member traces derive from options.seed (so
 * daily shapes align — every hourly change contends for the profiling
 * pool — while noise and anomalies differ per service).
 */
class FleetBuilder
{
  public:
    explicit FleetBuilder(ScenarioOptions options = {});

    /** Slot-scheduling policy for the profiling host pool. */
    FleetBuilder &slotPolicy(SlotPolicy policy);

    /** Default host occupancy per adaptation; 0 means each service
     *  kind's own profilingSlotHint(). */
    FleetBuilder &profilingSlot(SimTime slot);

    /** Size M of the profiling host pool (default 1 — the paper's
     *  single dedicated machine). */
    FleetBuilder &profilingHosts(int hosts);

    /** Selects nothing: tuner experiments are always §3.3 pool work
     *  (see ProfilingWorkMode). */
    FleetBuilder &profilingWorkMode(ProfilingWorkMode) { return *this; }

    /** Keep per-tick plot series (default true). Huge-fleet sweeps
     *  turn this off so peak RSS stops scaling with tick count; the
     *  digest columns are aggregate-only and unaffected. */
    FleetBuilder &recordSeries(bool record);

    /**
     * De-synchronize change arrival (the ROADMAP's jittered trace
     * hours): each member's hourly changes fire at its own
     * deterministic offset in [0, spread), derived from (@p seed,
     * member index). @p spread must stay within the hour; 0 restores
     * synchronized arrivals. Offsets shift a member's whole
     * timeline — its monitor chain and recorder follow the driver —
     * so per-member series stay internally consistent.
     */
    FleetBuilder &arrivalJitter(std::uint64_t seed, SimTime spread);

    /**
     * Repository composition (default Private): Shared attaches all
     * members to one fleet-wide SharedRepository with per-kind
     * namespaces — a mixed KeyValue+SPECweb+RUBiS fleet gets one
     * shared table per kind, so allocations tuned by one member are
     * reused by every compatible peer, same-class signature
     * collections coalesce into one slot and reuse-answered queued
     * tuner items are cancelled. Sharing requires same-kind members
     * to agree on SLO and trace family (build()/addService() are
     * fatal otherwise).
     */
    FleetBuilder &shareRepository(RepositorySharing sharing);

    /** Add @p count members of @p kind with kind-default settings. */
    FleetBuilder &add(ServiceKind kind, int count = 1);

    /** Add one fully specified member. */
    FleetBuilder &add(FleetMemberSpec spec);

    /** Members requested so far. */
    int size() const { return static_cast<int>(_specs.size()); }

    /** Construct the whole fleet stack (does not run learning). */
    std::unique_ptr<FleetStack> build() const;

  private:
    ScenarioOptions _options;
    SlotPolicy _policy = SlotPolicy::Fifo;
    SimTime _defaultSlot = 0;
    int _profilingHosts = 1;
    RepositorySharing _sharing = RepositorySharing::Private;
    bool _recordSeries = true;
    std::uint64_t _jitterSeed = 0;
    SimTime _jitterSpread = 0;
    std::vector<FleetMemberSpec> _specs;
};

/**
 * Cassandra scale-out fleet: @p services co-hosted key-value stores
 * (the homogeneous baseline), @p profilingHosts profiling machines.
 */
std::unique_ptr<FleetStack> makeCassandraFleet(
    int services, const ScenarioOptions &options,
    SimTime profilingSlot = seconds(10),
    SlotPolicy policy = SlotPolicy::Fifo,
    int profilingHosts = 1,
    RepositorySharing sharing = RepositorySharing::Private,
    SimTime arrivalJitterSpread = 0);

/**
 * Mixed fleet: @p services members cycling through KeyValue, SPECweb
 * and RUBiS, each with its kind's SLO (60 ms / QoS 95% / 150 ms) and
 * profiling-slot hint (10 s / 15 s / 20 s), sharing @p profilingHosts
 * profiling machines.
 */
std::unique_ptr<FleetStack> makeMixedFleet(
    int services, const ScenarioOptions &options,
    SlotPolicy policy = SlotPolicy::Fifo,
    int profilingHosts = 1,
    RepositorySharing sharing = RepositorySharing::Private,
    SimTime arrivalJitterSpread = 0);

/**
 * YCSB-style fleet: @p services key-value stores cycling through the
 * four core YCSB mixes (update-heavy A, read-heavy B, read-only C,
 * read-latest D), all ServiceKind::Ycsb with a 40 ms SLO and a 15 s
 * profiling-slot hint. One kind spanning four mixes means members
 * learn *different* signature distributions, so these fleets default
 * to (and should stay on) private repositories.
 */
std::unique_ptr<FleetStack> makeYcsbFleet(
    int services, const ScenarioOptions &options,
    SlotPolicy policy = SlotPolicy::Fifo,
    int profilingHosts = 1,
    RepositorySharing sharing = RepositorySharing::Private,
    SimTime arrivalJitterSpread = 0);

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_SCENARIO_HH
