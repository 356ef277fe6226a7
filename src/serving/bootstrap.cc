#include "serving/bootstrap.hh"

#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "core/controller.hh"
#include "counters/profiler.hh"
#include "experiments/actors.hh"

namespace dejavu {
namespace serving {

FleetMember &
ServingBootstrap::memberFor(ServiceKind kind)
{
    DEJAVU_ASSERT(stack, "bootstrap has no fleet");
    for (auto &member : stack->members) {
        if (member->service->kind() == kind)
            return *member;
    }
    fatal("serving bootstrap: no member of kind ",
          serviceKindName(kind));
}

void
ServingBootstrap::serveSaved(std::istream &saved)
{
    // The server references the repository: drop it first.
    server.reset();
    repo = std::make_unique<SharedRepository>(
        SharedRepository::load(saved));
    ServingServer::Config config;
    config.budgetNanos = options.budgetNanos;
    config.maxSessions = options.maxSessions;
    server = std::make_unique<ServingServer>(*repo, config);
    for (auto &member : stack->members) {
        server->registerModel(member->service->kind(),
                              member->controller->servingModel());
    }
}

std::vector<MetricSample>
ServingBootstrap::collectSamples(ServiceKind kind, int count)
{
    DEJAVU_ASSERT(count >= 0, "negative sample count");
    FleetMember &member = memberFor(kind);
    const int firstHour = member.experimentConfig.reuseStartHour;
    const int totalHours =
        static_cast<int>(member.trace.hours());
    DEJAVU_ASSERT(totalHours > firstHour,
                  "trace has no reuse window");
    const int window = totalHours - firstHour;

    std::vector<MetricSample> samples;
    samples.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const int hour = firstHour + i % window;
        const Workload workload = TraceDriver::workloadFor(
            *member.service, member.trace,
            member.experimentConfig.peakClients, hour);
        samples.push_back(
            member.profiler->collectSignature(workload));
    }
    return samples;
}

std::unique_ptr<ServingBootstrap>
makeServingBootstrap(const BootstrapOptions &options)
{
    auto bootstrap = std::make_unique<ServingBootstrap>();
    bootstrap->options = options;

    // One member per kind (mixed fleet cycles KeyValue, SPECweb,
    // RUBiS), shared repository so the fleet writes one table per
    // kind — the namespace layout the daemon serves.
    ScenarioOptions scenario;
    scenario.seed = options.seed;
    scenario.days = options.days;
    bootstrap->stack = makeMixedFleet(
        3, scenario, SlotPolicy::Fifo, /*profilingHosts=*/1,
        RepositorySharing::Shared);
    bootstrap->stack->learnAll(options.learnThreads);

    // Reload the learned repository through its persistence format —
    // the daemon's restart path, not a shortcut: dejavud always
    // starts from a saved repository, never from live fleet state.
    SharedRepository *fleetRepo =
        bootstrap->stack->experiment->sharedRepository();
    DEJAVU_ASSERT(fleetRepo != nullptr,
                  "mixed fleet lost its shared repository");
    std::stringstream persisted;
    fleetRepo->save(persisted);
    bootstrap->serveSaved(persisted);
    return bootstrap;
}

void
widenRepository(SharedRepository &repo, ServiceKind kind,
                int firstClassId, int classes, int buckets,
                const ResourceAllocation &allocation)
{
    DEJAVU_ASSERT(firstClassId >= 0 && classes >= 0 && buckets >= 1,
                  "bad widen arguments");
    RepositoryHandle handle = repo.attach(kind);
    for (int c = 0; c < classes; ++c) {
        for (int b = 0; b < buckets; ++b)
            handle.store(RepositoryKey{firstClassId + c, b},
                         allocation);
    }
}

} // namespace serving
} // namespace dejavu
