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

class FleetExperiment::PoolRoute : public ProvisioningPolicy
{
  public:
    PoolRoute(DejaVuFleet &fleet, const Member &member,
              std::size_t memberIndex, DejaVuController &controller)
        : ProvisioningPolicy(*member.service), _fleet(fleet),
          _name(member.name), _slo(member.config.slo),
          _controller(controller), _memberIndex(memberIndex)
    {}

    std::string name() const override
    { return "dejavu-fleet/" + _fleet.scheduler().name(); }

    /** Reuse-window changes queue for a profiling slot rather than
     *  reaching the controller directly. */
    void onWorkloadChange(const Workload &workload) override
    { _fleet.requestAdaptation(_name, workload); }

    /** Production SLO feedback (§3.6 interference path) stays
     *  service-local; it needs no profiling slot. Violations also
     *  accrue SLO debt on the fleet, which the SLO-debt-first slot
     *  policy consumes. */
    void onMonitorTick(const Service::PerfSample &sample) override
    {
        _controller.onSloFeedback(sample);
        if (!_slo.satisfied(sample.meanLatencyMs, sample.qosPercent))
            _fleet.noteSloViolation(_name);
    }

    DejaVuController &controller() const { return _controller; }
    std::size_t memberIndex() const { return _memberIndex; }

    /** @name Pool statistics, filled by the fleet's listener @{ */
    RunningStats adaptationSec;
    RunningStats queueDelaySec;
    int adaptations = 0;
    SimTime maxQueueDelay = 0;
    /** @} */

  private:
    DejaVuFleet &_fleet;
    std::string _name;
    Slo _slo;
    DejaVuController &_controller;
    std::size_t _memberIndex;  ///< In _members and the sampler.
};

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
    // queueing delay (§3.3) — to the service that requested it, and
    // keep its two times for the fleet-wide tails. The fleet's
    // name-to-index map is authoritative (members register in
    // lockstep), and memberIndex() is fatal on a miss: an unknown
    // name here is a wiring bug, not a condition to skip.
    _fleet.addListener(
        [this](const DejaVuFleet::CompletedAdaptation &entry) {
            PoolRoute &route = *_routes[_fleet.memberIndex(entry.service)];
            const double queueSec = toSeconds(entry.queueDelay());
            const double totalSec = toSeconds(entry.totalAdaptation());
            _queueDelaySec.add(queueSec);
            _adaptationSec.add(totalSec);
            route.adaptationSec.add(totalSec);
            route.queueDelaySec.add(queueSec);
            ++route.adaptations;
            route.maxQueueDelay = std::max(route.maxQueueDelay,
                                           entry.queueDelay());
        });
}

FleetExperiment::~FleetExperiment() = default;

FleetExperiment::Member &
FleetExperiment::addMember(const std::string &name, Service &service,
                           LoadTrace trace,
                           ProvisioningExperiment::Config config,
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
    member->trace = std::move(trace);
    member->config = config;
    member->arrivalOffset = arrivalOffset;
    _members.push_back(std::move(member));
    return *_members.back();
}

void
FleetExperiment::addService(const std::string &name, Service &service,
                            ProvisioningPolicy &policy, LoadTrace trace,
                            ProvisioningExperiment::Config config)
{
    addMember(name, service, std::move(trace), config, 0).policy =
        &policy;
}

void
FleetExperiment::addService(const std::string &name, Service &service,
                            DejaVuController &controller,
                            LoadTrace trace,
                            ProvisioningExperiment::Config config,
                            SimTime profilingSlot,
                            SimTime arrivalOffset)
{
    Member &member = addMember(name, service, std::move(trace), config,
                               arrivalOffset);

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
    DEJAVU_ASSERT(_fleet.memberIndex(name) == _routes.size(),
                  "fleet/route tables out of lockstep");
    _routes.push_back(std::make_unique<PoolRoute>(
        _fleet, member, _members.size() - 1, controller));
    member.route = _routes.back().get();
    member.policy = member.route;
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
        // Listener order at every change and every sample: the
        // sampler's chain start, then the policy, then the recorder —
        // the policy reacts to each fresh sample before the recorder
        // logs it, as a production control loop would.
        const std::size_t index = _sampler->registerService(
            service, *m.driver,
            FleetSampler::Cadence{m.config.monitorPeriod,
                                  m.config.postChangeProbe});
        // Hours before reuseStartHour are the learning phase: the
        // policy holds its deployment and only monitoring runs.
        ProvisioningPolicy &policy = *m.policy;
        const int reuseStartHour = m.config.reuseStartHour;
        m.driver->addListener(
            [&policy, reuseStartHour](int hour, const Workload &w) {
                if (hour >= reuseStartHour)
                    policy.onWorkloadChange(w);
            });
        _sampler->addListener(
            index, [&policy](int, const Service::PerfSample &s) {
                policy.onMonitorTick(s);
            });

        m.recorder = std::make_unique<MetricsRecorder>(
            _sim, service, m.trace, *m.driver, *_sampler, index,
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
        sr.result.policyName = m.policy->name();
        if (m.route) {
            sr.result.adaptationSec = m.route->adaptationSec;
            sr.adaptations = m.route->adaptations;
            sr.maxQueueDelay = m.route->maxQueueDelay;
            sr.queueDelaySec = m.route->queueDelaySec;
        } else {
            for (double t : m.policy->adaptationTimesSec())
                sr.result.adaptationSec.add(t);
        }
        results.push_back(std::move(sr));
    }
    return results;
}

void
FleetExperiment::detachService(const std::string &name)
{
    _fleet.detachService(name);
    if (_sampler)
        _sampler->detach(_routes[_fleet.memberIndex(name)]->memberIndex());
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
    for (const auto &route : _routes) {
        const RepositoryHandle &handle = route->controller().repository();
        s.repoLookups += handle.stats().lookups;
        s.repoHits += handle.stats().hits;
        s.repoCrossHits += handle.crossHits();
        s.repoReusedEntries += handle.reusedEntries();
    }
    if (s.repoLookups > 0)
        s.repoHitRate =
            static_cast<double>(s.repoHits) / s.repoLookups;
    s.adaptations = _queueDelaySec.count();
    if (s.adaptations == 0)
        return s;
    s.queueDelayP50Sec = _queueDelaySec.quantile(0.50);
    s.queueDelayP95Sec = _queueDelaySec.quantile(0.95);
    s.queueDelayP999Sec = _queueDelaySec.quantile(0.999);
    s.queueDelayMaxSec = _queueDelaySec.quantile(1.0);
    s.adaptationP50Sec = _adaptationSec.quantile(0.50);
    s.adaptationP95Sec = _adaptationSec.quantile(0.95);
    s.adaptationP999Sec = _adaptationSec.quantile(0.999);
    s.adaptationMaxSec = _adaptationSec.quantile(1.0);
    return s;
}

} // namespace dejavu
