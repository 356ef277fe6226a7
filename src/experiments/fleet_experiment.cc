#include "experiments/fleet_experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/simulation.hh"

namespace dejavu {

namespace {

/** SLO equality on the dimension the SLO actually constrains. */
bool
sameSlo(const Slo &a, const Slo &b)
{
    if (a.kind != b.kind)
        return false;
    return a.kind == SloKind::LatencyBound
        ? a.latencyBoundMs == b.latencyBoundMs
        : a.qosFloorPercent == b.qosFloorPercent;
}

} // namespace

FleetExperiment::FleetExperiment(Simulation &sim, SimTime profilingSlot,
                                 SlotPolicy policy, int profilingHosts,
                                 RepositorySharing sharing)
    : _sim(sim),
      _fleet(sim, profilingSlot, makeSlotScheduler(policy),
             profilingHosts, sharing == RepositorySharing::Shared),
      _sharing(sharing)
{
    if (_sharing == RepositorySharing::Shared)
        _sharedRepo = std::make_unique<SharedRepository>();
    // Charge every completed adaptation — including its host-pool
    // queueing delay (§3.3) — to the service that requested it. The
    // fleet's name-to-index map is authoritative (members register in
    // lockstep), and memberIndex() is fatal on a miss: an unknown
    // name here is a wiring bug, not a condition to skip.
    _fleet.addListener(
        [this](const DejaVuFleet::CompletedAdaptation &entry) {
            Member &member =
                *_members[_fleet.memberIndex(entry.service)];
            member.adaptationSec.add(
                toSeconds(entry.totalAdaptation()));
            member.queueDelaySec.add(toSeconds(entry.queueDelay()));
            ++member.adaptations;
            member.maxQueueDelay = std::max(member.maxQueueDelay,
                                            entry.queueDelay());
        });
}

void
FleetExperiment::addService(const std::string &name, Service &service,
                            DejaVuController &controller,
                            LoadTrace trace,
                            ProvisioningExperiment::Config config,
                            SimTime profilingSlot,
                            SimTime arrivalOffset)
{
    DEJAVU_ASSERT(!_ran, "fleet experiment already ran");
    DEJAVU_ASSERT(arrivalOffset >= 0 && arrivalOffset < kHour,
                  "arrival offset must fall within the hour for ",
                  name);
    if (config.totalHours < 0)
        config.totalHours = static_cast<int>(trace.hours());
    DEJAVU_ASSERT(config.totalHours > config.reuseStartHour,
                  "no reuse window for service ", name);

    auto member = std::make_unique<Member>();
    member->name = name;
    member->service = &service;
    member->controller = &controller;
    member->trace = std::move(trace);
    member->config = config;
    member->arrivalOffset = arrivalOffset;

    // Compose the repository axis: under sharing, this controller's
    // cache operations go through the fleet-wide repository (kind
    // namespace = its service kind). Must precede learn().
    if (_sharedRepo) {
        // Live sharing is only sound between compatible services.
        // Entries carry no SLO, so two same-kind members with
        // different SLOs would silently serve each other allocations
        // tuned for the wrong objective — reject the composition
        // loudly instead.
        const ServiceKind kind = service.kind();
        const auto it = _kindSlo.find(kind);
        if (it == _kindSlo.end())
            _kindSlo.emplace(kind, config.slo);
        else if (!sameSlo(it->second, config.slo))
            fatal("fleet member '", name, "': repository sharing "
                  "requires one SLO per service kind, but ",
                  serviceKindName(kind), " is already registered "
                  "with ", it->second.toString(), " and '", name,
                  "' wants ", config.slo.toString(), "; align "
                  "the SLOs or use private repositories");
        controller.attachRepository(*_sharedRepo, name);
    }

    _fleet.addService(name, service, controller, profilingSlot);
    DEJAVU_ASSERT(_fleet.memberIndex(name) == _members.size(),
                  "fleet/experiment member tables out of lockstep");
    _members.push_back(std::move(member));
}

std::vector<FleetExperiment::ServiceResult>
FleetExperiment::run()
{
    DEJAVU_ASSERT(!_members.empty(), "fleet experiment has no services");
    DEJAVU_ASSERT(!_ran, "fleet experiment already ran");
    _ran = true;

    // Actors per member: driver + recorder, plus the fleet-level
    // sampler. Pre-size the registry once.
    _sim.reserveActors(_members.size() * 2 + 1);
    // All members' plot series land in one chunked arena (five
    // streams per member, claimed in registration order).
    _series.reserveStreams(_members.size() * 5);
    _sampler = std::make_unique<FleetSampler>(_sim);
    _sampler->reserveServices(_members.size());

    SimTime horizon = 0;
    for (auto &memberPtr : _members) {
        Member &m = *memberPtr;
        Service &service = *m.service;

        // Hold the learning allocation through the learning phase.
        if (service.cluster().target() != m.config.learningAllocation) {
            service.cluster().deploy(m.config.learningAllocation);
            service.onReconfigure();
        }

        m.driver = std::make_unique<TraceDriver>(
            _sim, service, m.trace,
            TraceDriver::Config{m.config.totalHours,
                                m.config.peakClients,
                                m.arrivalOffset},
            "trace:" + m.name);
        // The sample source registers its chain listener on the
        // driver *first*, before the adaptation and recorder
        // listeners below.
        m.feed = &_sampler->registerService(
            service, *m.driver,
            MonitorProbe::Config{m.config.monitorPeriod,
                                 m.config.postChangeProbe});

        // Reuse-window workload changes route through the profiling
        // host pool rather than straight to the controller.
        Member *mp = &m;
        m.driver->addListener([this, mp](int hour, const Workload &w) {
            if (hour >= mp->config.reuseStartHour)
                _fleet.requestAdaptation(mp->name, w);
        });
        // Production SLO feedback (§3.6 interference path) stays
        // service-local; it needs no profiling slot. Violations also
        // accrue SLO debt on the fleet, which the SLO-debt-first slot
        // policy consumes.
        m.feed->addListener([this, mp](int,
                                       const Service::PerfSample &s) {
            mp->controller->onSloFeedback(s);
            if (!mp->config.slo.satisfied(s.meanLatencyMs,
                                          s.qosPercent))
                _fleet.noteSloViolation(mp->name);
        });

        m.recorder = std::make_unique<MetricsRecorder>(
            _sim, service, m.trace, *m.driver, *m.feed,
            MetricsRecorder::Config{m.config.reuseStartHour,
                                    m.config.slo,
                                    m.config.recordSeries},
            "metrics:" + m.name, &_series);
        m.recorder->setMaxAllocation(service.cluster().maxAllocation());

        horizon = std::max(horizon,
                           saturatingAdd(m.config.totalHours
                                             * static_cast<SimTime>(
                                                 kHour),
                                         m.arrivalOffset));
    }

    _sim.runUntil(horizon);

    std::vector<ServiceResult> results;
    results.reserve(_members.size());
    for (auto &memberPtr : _members) {
        Member &m = *memberPtr;
        ServiceResult sr;
        sr.name = m.name;
        sr.result = m.recorder->finish();
        sr.result.policyName =
            "dejavu-fleet/" + _fleet.scheduler().name();
        sr.result.adaptationSec = m.adaptationSec;
        sr.adaptations = m.adaptations;
        sr.maxQueueDelay = m.maxQueueDelay;
        sr.queueDelaySec = m.queueDelaySec;
        results.push_back(std::move(sr));
    }
    return results;
}

void
FleetExperiment::detachService(const std::string &name)
{
    _fleet.detachService(name);
    Member &member = *_members[_fleet.memberIndex(name)];
    if (member.feed)
        member.feed->detach();
}

FleetExperiment::FleetSummary
FleetExperiment::summary() const
{
    FleetSummary s;
    s.policy = _fleet.scheduler().name();
    s.sharing = repositorySharingName(_sharing);
    s.services = services();
    s.hosts = _fleet.profilingHosts();
    const ProfilingWorkQueue::Stats &work = _fleet.workQueue().stats();
    s.signatureSlots = work.signatureSlots;
    s.tunerSlots = work.tunerSlots;
    s.coalescedSignatures = work.coalescedSignatures;
    s.tunerCancelled = work.tunerCancelledForReuse;
    s.tunerAdopted = _fleet.tunerAdoptedAtGrant();
    s.hostsFailed = work.hostsFailed;
    s.hostsRestored = work.hostsRestored;
    s.cancelledHostLost = work.cancelledHostLost;
    s.orphanedItems = _fleet.workQueue().orphanedItems();
    // Aggregate the repository statistics over the member handles.
    // This works identically in Private mode (each handle fronts its
    // controller's own repository), so shared-vs-private hit rates
    // are one column, not two code paths.
    for (const auto &memberPtr : _members) {
        const RepositoryHandle &handle =
            memberPtr->controller->repository();
        s.repoLookups += handle.stats().lookups;
        s.repoHits += handle.stats().hits;
        s.repoCrossHits += handle.crossHits();
        s.repoReusedEntries += handle.reusedEntries();
    }
    if (s.repoLookups > 0)
        s.repoHitRate =
            static_cast<double>(s.repoHits) / s.repoLookups;
    PercentileSampler queueDelay, total;
    for (const auto &entry : _fleet.log()) {
        queueDelay.add(toSeconds(entry.queueDelay()));
        total.add(toSeconds(entry.totalAdaptation()));
    }
    s.adaptations = queueDelay.count();
    if (s.adaptations == 0)
        return s;
    s.queueDelayP50Sec = queueDelay.quantile(0.50);
    s.queueDelayP95Sec = queueDelay.quantile(0.95);
    s.queueDelayP999Sec = queueDelay.quantile(0.999);
    s.queueDelayMaxSec = queueDelay.quantile(1.0);
    s.adaptationP50Sec = total.quantile(0.50);
    s.adaptationP95Sec = total.quantile(0.95);
    s.adaptationP999Sec = total.quantile(0.999);
    s.adaptationMaxSec = total.quantile(1.0);
    return s;
}

} // namespace dejavu
