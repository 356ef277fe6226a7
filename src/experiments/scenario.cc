#include "experiments/scenario.hh"

#include <cmath>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace dejavu {

DejaVuController::LearningReport
ScenarioStack::learnDayOne()
{
    DEJAVU_ASSERT(controller && experiment, "stack not fully wired");
    return controller->learn(experiment->learningWorkloads());
}

LoadTrace
scenarioTrace(const std::string &name, int days, std::uint64_t seed)
{
    TraceOptions opts;
    opts.numDays = days;
    opts.seed = seed;
    if (name == "messenger")
        return makeMessengerTrace(opts);
    if (name == "hotmail")
        return makeHotmailTrace(opts);
    fatal("unknown trace name: ", name, " (use messenger|hotmail)");
}

namespace {

/** Clients that drive the cluster-wide rate to rho * full capacity. */
double
clientsForUtilization(const Service &service, const RequestMix &mix,
                      double totalEcu, double rho)
{
    const double rate = rho * totalEcu * service.capacityPerEcu(mix);
    return service.clients().clientsForRate(rate);
}

/**
 * SPECweb peak sizing: the large type suffices for load below ~72% of
 * the *learning-day* peak and extra-large is required around the
 * daily peaks — the regime Figures 9/10 show ("the smaller instance
 * was capable of accommodating the load most of the time; only during
 * the peak load ... DejaVu deploys the full capacity"). Anchoring on
 * day 1 keeps the boundary stable regardless of how later anomalies
 * normalize the trace.
 */
double
specwebPeakClients(const Service &service, const RequestMix &mix,
                   const LoadTrace &trace)
{
    const double largeEcu =
        10 * instanceSpec(InstanceType::Large).computeUnits;
    // QoS-feasible utilization bound: qos(rho) == floor + headroom.
    const double kneeRho = 0.82;
    const double feasibleRho = kneeRho
        + std::pow((99.5 - 95.0 - 0.5) / 120.0, 1.0 / 1.4);
    const double largeFeasibleRate =
        feasibleRho * largeEcu * service.capacityPerEcu(mix);
    double dayOneMax = 0.0;
    for (int h = 0; h < 24; ++h)
        dayOneMax = std::max(dayOneMax, trace.at(0, h));
    // Large suffices below 90% of the learning-day peak: only the
    // hours hugging the daily maximum need the extra-large type.
    const double peakRate =
        largeFeasibleRate / (0.90 * std::max(dayOneMax, 1e-6));
    return service.clients().clientsForRate(peakRate);
}

/** The §4.3 co-located tenant: a microbenchmark occupying 10% or
 *  20% of each VM, reassigned every two hours — one definition for
 *  the single-service case studies and the fleet members, so the
 *  "+interference" cells of both stay the same experiment. */
std::unique_ptr<InterferenceInjector>
standardInjector(EventQueue &queue, Cluster &cluster, Rng rng)
{
    InterferenceInjector::Config icfg;
    icfg.levels = {0.10, 0.20};
    icfg.period = hours(2);
    return std::make_unique<InterferenceInjector>(queue, cluster,
                                                  icfg, rng);
}

/** Fleet member auto-naming: svc-A..svc-Z, then svc-A1, svc-B1, ... */
std::string
autoServiceName(std::size_t i)
{
    return "svc-" + std::string(1, char('A' + i % 26))
        + (i >= 26 ? std::to_string(i / 26) : "");
}

/**
 * The one per-service stack factory: member @p index of a fleet on
 * @p sim. Member 0 is also a single-service case study: its trace
 * seed, options.seed + 1000003 * index, is then options.seed. Forks
 * the simulation RNG in a fixed order — service, counters, profiler,
 * injector, daemon, controller — so a member's stack depends only on
 * the forks before it. Leaves the profiling slot, arrival offset and
 * series switch at their defaults for FleetBuilder to set.
 */
std::unique_ptr<FleetMember>
buildMember(Simulation &sim, const ScenarioOptions &options,
            const FleetMemberSpec &spec, std::size_t index)
{
    auto member = std::make_unique<FleetMember>();
    member->name =
        spec.name.empty() ? autoServiceName(index) : spec.name;

    Cluster::Config ccfg;
    ccfg.maxInstances = 10;
    ccfg.initialType = InstanceType::Large;
    member->cluster = std::make_unique<Cluster>(sim.queue(), ccfg);

    // Per-kind service model, request mix, search space and default
    // SLO: §4.1 Cassandra, §4.2 SPECweb (10 VMs model the 5 front-end
    // + 5 back-end pairs; only the instance *type* scales), RUBiS and
    // YCSB.
    std::unique_ptr<Service> service;
    RequestMix mix;
    DejaVuController::Config dcfg;
    ProvisioningExperiment::Config ecfg;
    ecfg.reuseStartHour = 24;
    ecfg.learningAllocation = {10, InstanceType::Large};
    switch (spec.kind) {
      case ServiceKind::SpecWeb:
        service = std::make_unique<SpecWebService>(
            sim.queue(), *member->cluster, sim.forkRng());
        mix = specwebSupport();
        dcfg.slo = Slo::qos(95.0);
        dcfg.searchSpace = scaleUpSearchSpace(
            10, {InstanceType::Large, InstanceType::XLarge});
        ecfg.learningAllocation = {10, InstanceType::XLarge};
        break;
      case ServiceKind::Rubis:
        service = std::make_unique<RubisService>(
            sim.queue(), *member->cluster, sim.forkRng());
        mix = rubisBidding();
        dcfg.slo = Slo::latency(150.0);
        dcfg.searchSpace = scaleOutSearchSpace(10, InstanceType::Large);
        break;
      case ServiceKind::Ycsb:
        service = std::make_unique<YcsbService>(
            sim.queue(), *member->cluster, sim.forkRng());
        mix = ycsbUpdateHeavy();
        dcfg.slo = Slo::latency(40.0);
        dcfg.searchSpace = scaleOutSearchSpace(10, InstanceType::Large);
        break;
      case ServiceKind::KeyValue:
      case ServiceKind::Generic:
        service = std::make_unique<KeyValueService>(
            sim.queue(), *member->cluster, sim.forkRng());
        mix = cassandraUpdateHeavy();
        dcfg.slo = Slo::latency(60.0);
        dcfg.searchSpace = scaleOutSearchSpace(10, InstanceType::Large);
        break;
    }
    // An explicit per-member mix overrides the kind default (the
    // YCSB fleet cycles its four core workloads this way).
    if (spec.mix)
        mix = *spec.mix;
    service->setWorkload({mix, 0.0});

    CounterModel counters(service->kind(), sim.forkRng());
    Monitor monitor(*service, counters);
    member->profiler = std::make_unique<ProfilerHost>(
        *service, std::move(monitor), sim.forkRng());

    // §4.3 co-located tenant pressure; in a fleet this is what makes
    // §3.6 tuner sequences — pool work under the work-queue model —
    // actually fire.
    if (options.interference)
        member->injector = standardInjector(
            sim.queue(), *member->cluster, sim.forkRng());

    // BASK-style background daemon: a deterministic dedup/scan duty
    // cycle stealing CPU+memory from every member VM — interference
    // the §3.6 estimator must bucket, via a mechanism distinct from
    // (and composable with) the injector's random reassignment above.
    if (options.daemons)
        member->daemon = std::make_unique<DaemonCoRunner>(
            sim.queue(), *member->cluster, DaemonCoRunner::Config{},
            sim.forkRng());

    if (spec.slo)
        dcfg.slo = *spec.slo;
    dcfg.interferenceDetection = options.interferenceDetection;
    member->controller = std::make_unique<DejaVuController>(
        *service, *member->profiler, dcfg, sim.forkRng());

    // Same diurnal shape for every service (all hourly changes
    // contend for the shared profiler), distinct per-service
    // noise/anomalies via the seed offset.
    const std::string traceName =
        spec.traceName.empty() ? options.traceName : spec.traceName;
    member->trace = scenarioTrace(
        traceName, options.days,
        options.seed + 1000003ULL * static_cast<std::uint64_t>(index));

    ecfg.slo = dcfg.slo;
    // An explicit per-member peakUtilization always wins. The SpecWeb
    // kind-default uses the QoS-knee sizing instead of a utilization
    // target (scale-up needs the Large/XLarge boundary anchored, not
    // a fixed rho).
    const double fullLargeEcu =
        10 * instanceSpec(InstanceType::Large).computeUnits;
    if (spec.peakUtilization > 0.0)
        ecfg.peakClients = clientsForUtilization(
            *service, mix, fullLargeEcu, spec.peakUtilization);
    else if (spec.kind == ServiceKind::SpecWeb)
        ecfg.peakClients =
            specwebPeakClients(*service, mix, member->trace);
    else
        ecfg.peakClients = clientsForUtilization(
            *service, mix, fullLargeEcu, options.peakUtilization);
    member->experimentConfig = ecfg;
    member->service = std::move(service);
    return member;
}

/** A single-service case study of @p kind: fleet member 0 on its own
 *  Simulation, with its ProvisioningExperiment. */
std::unique_ptr<ScenarioStack>
makeCaseStudy(ServiceKind kind, const ScenarioOptions &options)
{
    auto stack = std::make_unique<ScenarioStack>();
    stack->sim = std::make_unique<Simulation>(options.seed);
    FleetMemberSpec spec;
    spec.kind = kind;
    auto member = buildMember(*stack->sim, options, spec, 0);
    stack->cluster = std::move(member->cluster);
    stack->service = std::move(member->service);
    stack->profiler = std::move(member->profiler);
    stack->injector = std::move(member->injector);
    stack->daemon = std::move(member->daemon);
    stack->controller = std::move(member->controller);
    stack->controllerConfig = stack->controller->config();
    stack->trace = std::move(member->trace);
    stack->experiment = std::make_unique<ProvisioningExperiment>(
        *stack->sim, *stack->service, stack->trace,
        member->experimentConfig);
    return stack;
}

} // namespace

std::unique_ptr<ScenarioStack>
makeCassandraScaleOut(const ScenarioOptions &options)
{
    return makeCaseStudy(ServiceKind::KeyValue, options);
}

std::unique_ptr<ScenarioStack>
makeSpecWebScaleUp(const ScenarioOptions &options)
{
    return makeCaseStudy(ServiceKind::SpecWeb, options);
}

void
FleetStack::attachTrace(obs::TraceRecorder &recorder)
{
    trace = &recorder;
    if (experiment)
        experiment->fleet().setTrace(&recorder);
}

void
FleetStack::startInjectors()
{
    for (auto &member : members) {
        if (member->injector)
            member->injector->start();
        if (member->daemon)
            member->daemon->start();
    }
    if (hostLoss)
        hostLoss->start();
}

void
FleetStack::learnAll(int threads)
{
    DEJAVU_ASSERT(experiment, "fleet stack not fully wired");
    DEJAVU_ASSERT(threads >= 1, "learnAll needs >= 1 thread");

    // Member-local half: profile + cluster + train, touching only the
    // member's own profiler/RNG/model state. Each member's prepare is
    // independent of every other's, so the work-stealing order below
    // cannot change any member's result — only wall-clock time.
    auto prepare = [](FleetMember &member) {
        member.controller->prepareLearning(
            ProvisioningExperiment::learningWorkloads(
                *member.service, member.trace,
                member.experimentConfig));
    };
    // Learn phases are real (offline) work, so their trace spans are
    // wall-time. The workers never touch the recorder — one span
    // covers the whole parallel phase — and the sequential half gets
    // a per-member breakdown.
    obs::LaneId learnLane = 0;
    DEJAVU_TRACE(if (trace) {
        learnLane =
            trace->lane("phase/learn", obs::ClockDomain::Wall);
        trace->begin(learnLane, "learn.prepare", trace->wallMicros(),
                     obs::TraceRecorder::kNoDetail, members.size());
    });
    parallelFor(members.size(), threads, [this, &prepare](
                                             std::size_t i) {
        prepare(*members[i]);
    });
    DEJAVU_TRACE(if (trace) {
        trace->end(learnLane, trace->wallMicros());
        trace->begin(learnLane, "learn.finalize",
                     trace->wallMicros(),
                     obs::TraceRecorder::kNoDetail, members.size());
    });

    // Shared half: repository probe / tuner / store, strictly in
    // member order — under a shared repository, which member tunes a
    // class first decides who reuses whose entry, so this order is
    // part of the deterministic contract.
    for (auto &member : members) {
        std::int64_t memberStart = 0;
        DEJAVU_TRACE(if (trace) memberStart = trace->wallMicros());
        member->controller->learnPrepared();
        DEJAVU_TRACE(if (trace) trace->complete(
            learnLane, "learnPrepared", memberStart,
            trace->wallMicros() - memberStart,
            trace->intern(member->name)));
        (void)memberStart;
    }
    DEJAVU_TRACE(if (trace)
                     trace->end(learnLane, trace->wallMicros()));
    (void)learnLane;
}

FleetBuilder::FleetBuilder(ScenarioOptions options)
    : _options(std::move(options))
{
}

FleetBuilder &
FleetBuilder::slotPolicy(SlotPolicy policy)
{
    _policy = policy;
    return *this;
}

FleetBuilder &
FleetBuilder::profilingSlot(SimTime slot)
{
    DEJAVU_ASSERT(slot >= 0, "negative profiling slot");
    _defaultSlot = slot;
    return *this;
}

FleetBuilder &
FleetBuilder::profilingHosts(int hosts)
{
    DEJAVU_ASSERT(hosts >= 1, "profiling pool needs >= 1 host");
    _profilingHosts = hosts;
    return *this;
}

FleetBuilder &
FleetBuilder::shareRepository(RepositorySharing sharing)
{
    _sharing = sharing;
    return *this;
}

FleetBuilder &
FleetBuilder::recordSeries(bool record)
{
    _recordSeries = record;
    return *this;
}

FleetBuilder &
FleetBuilder::arrivalJitter(std::uint64_t seed, SimTime spread)
{
    DEJAVU_ASSERT(spread >= 0 && spread < kHour,
                  "arrival jitter spread must fall within the hour");
    _jitterSeed = seed;
    _jitterSpread = spread;
    return *this;
}

FleetBuilder &
FleetBuilder::add(ServiceKind kind, int count)
{
    DEJAVU_ASSERT(count >= 1, "need at least one member to add");
    for (int i = 0; i < count; ++i) {
        FleetMemberSpec spec;
        spec.kind = kind;
        _specs.push_back(std::move(spec));
    }
    return *this;
}

FleetBuilder &
FleetBuilder::add(FleetMemberSpec spec)
{
    _specs.push_back(std::move(spec));
    return *this;
}

std::unique_ptr<FleetStack>
FleetBuilder::build() const
{
    DEJAVU_ASSERT(!_specs.empty(), "fleet needs at least one service");
    // Live repository sharing also requires same-kind members to
    // draw from the same trace family: class ids align through
    // canonical centroid ordering, which only holds when the members
    // learn comparable workload distributions (per-member noise via
    // seed offsets is fine; messenger-vs-hotmail shapes are not).
    if (_sharing == RepositorySharing::Shared) {
        std::map<ServiceKind, std::pair<std::string, std::size_t>>
            kindTrace;  // kind -> (trace family, first member index)
        for (std::size_t i = 0; i < _specs.size(); ++i) {
            const std::string trace = _specs[i].traceName.empty()
                ? _options.traceName : _specs[i].traceName;
            const auto it = kindTrace.find(_specs[i].kind);
            if (it == kindTrace.end())
                kindTrace.emplace(_specs[i].kind,
                                  std::make_pair(trace, i));
            else if (it->second.first != trace)
                fatal("fleet member #", i, ": repository sharing "
                      "requires one trace family per service kind, "
                      "but ", serviceKindName(_specs[i].kind),
                      " member #", it->second.second, " uses '",
                      it->second.first, "' and member #", i,
                      " uses '", trace, "'; align the traces or use "
                      "private repositories");
        }
    }
    auto stack = std::make_unique<FleetStack>();
    stack->sim = std::make_unique<Simulation>(_options.seed);
    Simulation &sim = *stack->sim;
    stack->experiment = std::make_unique<FleetExperiment>(
        sim, _defaultSlot > 0 ? _defaultSlot : seconds(10), _policy,
        _profilingHosts, _sharing);

    // Pre-size everything that scales with N before the member loop:
    // the stack's member table, the event kernel (drivers + sampler
    // chains + controller deployments all pend concurrently), and the
    // per-service event emitters created below — growing these
    // incrementally is measurable churn at 10k services.
    stack->members.reserve(_specs.size());
    sim.queue().reserve(_specs.size() * 4 + 64);

    for (std::size_t i = 0; i < _specs.size(); ++i) {
        const FleetMemberSpec &spec = _specs[i];
        auto member = buildMember(sim, _options, spec, i);
        member->experimentConfig.recordSeries = _recordSeries;
        member->profilingSlot = spec.profilingSlot > 0
            ? spec.profilingSlot
            : (_defaultSlot > 0 ? _defaultSlot
                                : member->service->profilingSlotHint());

        // Jittered change arrival: a deterministic per-member offset
        // in [0, spread) derived from (jitter seed, member index) —
        // independent of the trace RNG, so jittered and synchronized
        // fleets see identical workloads.
        if (_jitterSpread > 0) {
            Rng jitterRng(_jitterSeed
                          + 1000003ULL * static_cast<std::uint64_t>(i));
            member->arrivalOffset = static_cast<SimTime>(
                jitterRng.uniform()
                * static_cast<double>(_jitterSpread));
        }

        stack->experiment->addService(member->name, *member->service,
                                      *member->controller,
                                      member->trace,
                                      member->experimentConfig,
                                      member->profilingSlot,
                                      member->arrivalOffset);
        stack->members.push_back(std::move(member));
    }

    // Host-loss fault injection: a deterministic kill/restore
    // rotation over the profiling pool (armed by startInjectors()).
    if (_options.hostLoss)
        stack->hostLoss = std::make_unique<HostLossSchedule>(
            sim.queue(), stack->experiment->fleet(),
            HostLossSchedule::Config{});
    return stack;
}

std::unique_ptr<FleetStack>
makeCassandraFleet(int services, const ScenarioOptions &options,
                   SimTime profilingSlot, SlotPolicy policy,
                   int profilingHosts, RepositorySharing sharing,
                   SimTime arrivalJitterSpread)
{
    DEJAVU_ASSERT(services >= 1, "fleet needs at least one service");
    FleetBuilder builder(options);
    builder.profilingSlot(profilingSlot)
        .slotPolicy(policy)
        .profilingHosts(profilingHosts)
        .shareRepository(sharing)
        .add(ServiceKind::KeyValue, services);
    if (arrivalJitterSpread > 0)
        builder.arrivalJitter(options.seed, arrivalJitterSpread);
    return builder.build();
}

std::unique_ptr<FleetStack>
makeMixedFleet(int services, const ScenarioOptions &options,
               SlotPolicy policy, int profilingHosts,
               RepositorySharing sharing, SimTime arrivalJitterSpread)
{
    DEJAVU_ASSERT(services >= 1, "fleet needs at least one service");
    static constexpr ServiceKind kCycle[] = {
        ServiceKind::KeyValue, ServiceKind::SpecWeb,
        ServiceKind::Rubis};
    FleetBuilder builder(options);
    builder.slotPolicy(policy);
    builder.profilingHosts(profilingHosts);
    builder.shareRepository(sharing);
    if (arrivalJitterSpread > 0)
        builder.arrivalJitter(options.seed, arrivalJitterSpread);
    for (int i = 0; i < services; ++i)
        builder.add(kCycle[i % 3]);
    return builder.build();
}

std::unique_ptr<FleetStack>
makeYcsbFleet(int services, const ScenarioOptions &options,
              SlotPolicy policy, int profilingHosts,
              RepositorySharing sharing, SimTime arrivalJitterSpread)
{
    DEJAVU_ASSERT(services >= 1, "fleet needs at least one service");
    // The four core YCSB workloads, cycled in catalog order: A
    // (update-heavy), B (read-heavy), C (read-only), D (read-latest).
    const RequestMix kMixes[] = {ycsbUpdateHeavy(), ycsbReadHeavy(),
                                 ycsbReadOnly(), ycsbReadLatest()};
    FleetBuilder builder(options);
    builder.slotPolicy(policy);
    builder.profilingHosts(profilingHosts);
    builder.shareRepository(sharing);
    if (arrivalJitterSpread > 0)
        builder.arrivalJitter(options.seed, arrivalJitterSpread);
    for (int i = 0; i < services; ++i) {
        FleetMemberSpec spec;
        spec.kind = ServiceKind::Ycsb;
        spec.mix = kMixes[i % 4];
        builder.add(std::move(spec));
    }
    return builder.build();
}

std::unique_ptr<ScenarioStack>
makeRubisStack(std::uint64_t seed)
{
    ScenarioOptions options;
    options.seed = seed;
    return makeCaseStudy(ServiceKind::Rubis, options);
}

} // namespace dejavu
