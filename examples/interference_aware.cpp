/**
 * @file
 * Interference-aware provisioning (the paper's Case Study 3, §4.3):
 * co-located tenants steal 10-20% of each VM's capacity on a rolling
 * schedule. DejaVu detects the resulting SLO violations, estimates
 * the interference index (production vs isolated performance),
 * caches an interference-aware allocation per (class, bucket), and
 * steps back down when the neighbours go quiet.
 *
 * The reuse phase is driven by the event runtime directly — a
 * TraceDriver applies each hourly workload and a FleetSampler (the
 * sampler every run uses) samples production performance every
 * minute — with plain listeners feeding the controller, so each §3.6
 * interference reaction is printed as it happens. This is the
 * template for wiring custom telemetry into the actor runtime.
 */

#include <cstdio>

#include "common/logging.hh"
#include "experiments/sampler.hh"
#include "experiments/scenario.hh"

using namespace dejavu;

int
main()
{
    setLogLevel(LogLevel::Warn);

    ScenarioOptions options;
    options.seed = 11;
    options.traceName = "messenger";
    options.interference = true;         // co-located tenants on
    options.interferenceDetection = true;
    options.days = 4;                    // keep the demo short
    auto stack = makeCassandraScaleOut(options);
    stack->injector->start();

    stack->learnDayOne();

    Service &service = *stack->service;
    DejaVuController &dejavu = *stack->controller;
    Simulation &sim = *stack->sim;
    const auto &config = stack->experiment->config();

    // Hold the learning allocation, then let the actors drive.
    service.cluster().deploy(config.learningAllocation);
    service.onReconfigure();

    TraceDriver driver(
        sim, service, stack->trace,
        TraceDriver::Config{static_cast<int>(stack->trace.hours()),
                            config.peakClients});
    FleetSampler sampler(sim);
    const std::size_t member = sampler.registerService(
        service, driver, FleetSampler::Cadence{minutes(1), minutes(1)});

    const int reuseStartHour = config.reuseStartHour;
    driver.addListener([&](int hour, const Workload &w) {
        if (hour >= reuseStartHour)
            dejavu.onWorkloadChange(w);
    });

    int adjustments = 0, violations = 0, ticks = 0;
    sampler.addListener(member, [&](int hour,
                                    const Service::PerfSample &sample) {
        if (hour < reuseStartHour)
            return;
        ++ticks;
        if (sample.meanLatencyMs > 60.0)
            ++violations;
        const auto reaction = dejavu.onSloFeedback(sample);
        if (reaction) {
            ++adjustments;
            std::printf("t=%s  interference reaction: class %d "
                        "-> %s (mean co-located loss %.0f%%)\n",
                        formatTime(sim.now()).c_str(),
                        reaction->classId,
                        reaction->allocation.toString().c_str(),
                        100.0 * service.cluster().meanInterference());
        }
    });

    sim.runUntil(static_cast<SimTime>(stack->trace.hours()) * kHour);

    std::printf("\ninterference-aware run complete:\n");
    std::printf("  interference adjustments: %d\n", adjustments);
    std::printf("  repository now holds %zu entries across "
                "interference buckets:\n    %s\n",
                dejavu.repository().entries(),
                dejavu.repository().toString().c_str());
    std::printf("  SLO violations: %.1f%% of samples (detection "
                "keeps the service ahead of its noisy neighbours)\n",
                100.0 * violations / ticks);
    return 0;
}
