/**
 * @file
 * The fleet workloads: a learned fleet simulated for two trace days,
 * plus the learning and run probes the serving workloads reuse.
 *
 * One repetition builds the fleet, runs its learning phase
 * (FleetStack::learnAll) and simulates it (FleetExperiment::run). The
 * untraced run repeats that for the requested seconds and reports
 * medians; the traced run does one untraced repetition as the
 * reference, then one repetition with every layer call timed.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/classifier_engine.hh"
#include "core/clustering_engine.hh"
#include "core/controller.hh"
#include "experiments/actors.hh"
#include "experiments/runner.hh"
#include "harness.hh"
#include "workload/request_mix.hh"

using namespace dejavu;

namespace perfbench {

namespace {

/** Learning-phase worker threads: fixed, so results do not depend on
 *  the machine. */
constexpr int kLearnThreads = 4;
/** Repetitions an untraced run makes at least (medians need three). */
constexpr std::size_t kMinReps = 3;
/** Untraced/traced repetition pairs that price the tracing. */
constexpr int kOverheadPairs = 3;
/** Members whose models the traced run serves from. */
constexpr std::size_t kServingProbeMembers = 4;
/** Calls per sampled member in the service-sampling probe. */
constexpr int kSampleCalls = 32;
/** Reuse-window signatures per sampled member (collection probe and
 *  serving-probe traffic). */
constexpr int kProbeSignatures = 64;

struct FleetSpec
{
    const char *name;
    int services;
    int smokeServices;
    int hosts;
    /** YCSB mixes on private repositories with daemons and host loss;
     *  otherwise KeyValue/SPECweb/RUBiS on one shared repository. */
    bool ycsb;
};

const FleetSpec kFleets[] = {
    {"fleet-mixed-shared", 600, 60, 4, false},
    {"fleet-ycsb-faults", 400, 40, 8, true},
};

const FleetSpec &
specFor(const std::string &name)
{
    for (const FleetSpec &spec : kFleets)
        if (name == spec.name)
            return spec;
    fatal("unknown fleet workload ", name);
}

std::unique_ptr<FleetStack>
buildFleet(const FleetSpec &spec, int services, std::uint64_t seed)
{
    ScenarioOptions options;
    options.seed = seed;
    options.days = 2;
    options.daemons = spec.ycsb;
    options.hostLoss = spec.ycsb;
    FleetBuilder builder(options);
    builder.slotPolicy(slotPolicyFromName("sjf"))
        .profilingHosts(spec.hosts)
        .shareRepository(spec.ycsb ? RepositorySharing::Private
                                   : RepositorySharing::Shared)
        .profilingWorkMode(ProfilingWorkMode::WorkQueue)
        .recordSeries(false);
    static const ServiceKind kKinds[] = {
        ServiceKind::KeyValue, ServiceKind::SpecWeb, ServiceKind::Rubis};
    const RequestMix kMixes[] = {ycsbUpdateHeavy(), ycsbReadHeavy(),
                                 ycsbReadOnly(), ycsbReadLatest()};
    for (int i = 0; i < services; ++i) {
        if (spec.ycsb) {
            FleetMemberSpec member;
            member.kind = ServiceKind::Ycsb;
            member.mix = kMixes[i % 4];
            builder.add(std::move(member));
        } else {
            builder.add(kKinds[i % 3]);
        }
    }
    return builder.build();
}

/** The learning workloads learnAll builds for @p member. */
std::vector<Workload>
learningWorkloads(const FleetMember &member)
{
    std::vector<Workload> learning;
    for (int h = 0; h < member.experimentConfig.reuseStartHour; ++h)
        learning.push_back(TraceDriver::workloadFor(
            *member.service, member.trace,
            member.experimentConfig.peakClients, h));
    return learning;
}

/** Reuse-window workloads of @p member, cycling its trace hours. */
Workload
reuseWorkload(const FleetMember &member, int i)
{
    const int first = member.experimentConfig.reuseStartHour;
    const int window = static_cast<int>(member.trace.hours()) - first;
    return TraceDriver::workloadFor(*member.service, member.trace,
                                    member.experimentConfig.peakClients,
                                    first + i % window);
}

/** Byte-comparable digest of a simulation's outcome: the fleet sweep
 *  CSV row plus the event count and the exact (hex-float) member
 *  means. */
std::string
digestOf(const std::string &workload, std::uint64_t seed,
         const FleetRun &run)
{
    std::vector<FleetCellResult> rows{
        {SweepCell{workload, run.summary.policy, seed}, run.summary}};
    char means[128];
    std::snprintf(means, sizeof means,
                  "events,%llu\nslo_violation_pct,%a\nsavings_pct,%a\n",
                  static_cast<unsigned long long>(run.events),
                  run.sloViolationPct, run.savingsPct);
    return fleetSweepCsv(rows) + means;
}

/** One untraced repetition. */
struct Rep
{
    double setupSec = 0.0;
    double peakMib = 0.0;
    FleetRun run;
    std::string digest;
};

/** One repetition; with @p recorder, the fleet records its spans. */
Rep
runRep(const FleetSpec &spec, int services, const RunConfig &config,
       obs::TraceRecorder *recorder = nullptr)
{
    Rep rep;
    resetPeakRss();
    const std::uint64_t setupStart = nowNanos();
    auto stack = buildFleet(spec, services, config.seed);
    if (recorder)
        stack->attachTrace(*recorder);
    stack->learnAll(kLearnThreads);
    rep.setupSec = secondsSince(setupStart);
    stack->startInjectors();
    rep.run = runFleet(*stack, nullptr);
    rep.peakMib = peakRssMib();
    rep.digest = digestOf(config.workload, config.seed, rep.run);
    return rep;
}

void
checkRun(const FleetSpec &spec, const FleetRun &run, Report &report)
{
    const auto &s = run.summary;
    report.check(s.adaptations > 0, "no adaptation completed");
    report.check(s.orphanedItems == 0,
                 "profiling items orphaned: "
                     + std::to_string(s.orphanedItems));
    if (spec.ycsb)
        report.check(s.hostsFailed > 0
                         && s.hostsFailed == s.hostsRestored,
                     "host-loss schedule did not kill and restore "
                     "hosts in pairs");
}

std::string
goldenPath(const RunConfig &config)
{
    return std::string(PERFBENCH_DIR) + "/golden/" + config.workload
        + (config.smoke ? ".smoke" : "") + ".seed42";
}

/** Seed 42 has a committed digest; any change to it is a change in
 *  what the simulator computes. */
void
checkGolden(const RunConfig &config, const std::string &digest,
            Report &report)
{
    if (config.seed != 42)
        return;
    const std::string path = goldenPath(config);
    if (config.updateGolden) {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write ", path);
        out << digest;
        std::printf("golden digest written to %s\n", path.c_str());
        return;
    }
    std::ifstream in(path);
    std::stringstream golden;
    golden << in.rdbuf();
    report.check(in && golden.str() == digest,
                 "digest differs from " + path + ":\n" + digest);
}

Report
runUntraced(const FleetSpec &spec, const RunConfig &config)
{
    Report report;
    const int services = config.smoke ? spec.smokeServices
                                      : spec.services;
    std::vector<Rep> reps;
    std::vector<double> repSec;
    const std::uint64_t start = nowNanos();
    // Repeat while another repetition still fits in the window.
    while (reps.size() < kMinReps
           || secondsSince(start) + medianOf(repSec) <= config.seconds) {
        const std::uint64_t repStart = nowNanos();
        reps.push_back(runRep(spec, services, config));
        repSec.push_back(secondsSince(repStart));
        const Rep &rep = reps.back();
        std::printf("rep %zu: setup %.3f s, run %.3f s, %llu events, "
                    "peak RSS %.1f MiB\n",
                    reps.size(), rep.setupSec, rep.run.runSec,
                    static_cast<unsigned long long>(rep.run.events),
                    rep.peakMib);
        checkRun(spec, rep.run, report);
        report.check(rep.digest == reps.front().digest,
                     "repetition " + std::to_string(reps.size())
                         + " computed a different fleet outcome");
        report.attempted += rep.run.summary.adaptations
            + rep.run.summary.orphanedItems;
        report.failed += rep.run.summary.orphanedItems;
    }
    checkGolden(config, reps.front().digest, report);

    std::vector<double> setup, throughput, peak;
    for (const Rep &rep : reps) {
        setup.push_back(rep.setupSec);
        throughput.push_back(static_cast<double>(rep.run.events)
                             / rep.run.runSec);
        peak.push_back(rep.peakMib);
    }
    report.add("setup_s", medianOf(setup), "s");
    report.add("throughput_per_s", medianOf(throughput), "1/s");
    report.add("peak_rss_mib", medianOf(peak), "MiB");
    return report;
}

/** Reuse-window signatures of @p member, as ServingBootstrap collects
 *  them for the daemon. */
std::vector<MetricSample>
probeSignatures(FleetMember &member)
{
    std::vector<MetricSample> samples;
    for (int i = 0; i < kProbeSignatures; ++i)
        samples.push_back(
            member.profiler->collectSignature(reuseWorkload(member, i)));
    return samples;
}

/** Serve lookups from a few sampled members' models and repositories
 *  (the fleet workloads' serving-layer probe). */
void
probeMemberServing(FleetStack &stack, const RunConfig &config,
                   SpanLog &spans, Report &report)
{
    ServingLayers layers;
    std::vector<std::size_t> picked = sampledMembers(stack.members.size());
    picked.resize(std::min(picked.size(), kServingProbeMembers));
    spans.time("probe.serving", [&] {
        for (std::size_t i : picked) {
            FleetMember &member = *stack.members[i];
            serving::ServingServer::Config serverConfig;
            serverConfig.budgetNanos = serving::ServingServer::kNoBudget;
            serving::ServingServer server(
                *member.controller->repository().shared(), serverConfig);
            const ServiceKind kind = member.service->kind();
            const serving::DecisionModel model =
                member.controller->servingModel();
            server.registerModel(kind, model);
            probeServing(server, kind, member.cluster->maxAllocation(),
                         model, probeSignatures(member),
                         socketPath(config), layers, report);
            layers.addCounters(server.metrics());
        }
    });
    addServingLayerMetrics(layers, layers.directUs, report);
}

Report
runTraced(const FleetSpec &spec, const RunConfig &config)
{
    Report report;
    const int services = config.smoke ? spec.smokeServices
                                      : spec.services;
    // Every traced repetition must compute the untraced outcome. After
    // one warm-up repetition, untraced and traced repetitions alternate
    // and the median ratio of their run() times prices the tracing.
    const Rep reference = runRep(spec, services, config);
    checkRun(spec, reference.run, report);
    std::vector<double> overheadPct;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        const Rep plain = runRep(spec, services, config);
        obs::TraceRecorder scratch;
        const Rep traced = runRep(spec, services, config, &scratch);
        report.check(plain.digest == reference.digest
                         && traced.digest == reference.digest,
                     "a traced or repeated run computed a different "
                     "fleet outcome");
        overheadPct.push_back(100.0
                              * (traced.run.runSec - plain.run.runSec)
                              / plain.run.runSec);
    }

    obs::TraceRecorder recorder;
    SpanLog spans;
    auto stack = spans.time("fleet.build", [&] {
        return buildFleet(spec, services, config.seed);
    });
    stack->attachTrace(recorder);
    learnInstrumented(*stack, kLearnThreads, spans, report);
    stack->startInjectors();
    const FleetRun run = runFleet(*stack, &spans);
    report.check(digestOf(config.workload, config.seed, run)
                     == reference.digest,
                 "traced repetition computed a different fleet "
                 "outcome than the untraced one");
    addFleetRunMetrics(*stack, run, spans, report);
    report.add("trace.overhead_pct", medianOf(overheadPct), "%");
    report.attempted = run.summary.adaptations + run.summary.orphanedItems;
    report.failed = run.summary.orphanedItems;

    // Probes consume member RNGs, so they run after the checks.
    replayLearning(*stack, spans, report);
    probeMemberServing(*stack, config, spans, report);
    writeTraceFiles(config, spans, recorder);
    return report;
}

} // namespace

void
learnInstrumented(FleetStack &stack, int threads, SpanLog &spans,
                  Report &report)
{
    const std::size_t n = stack.members.size();
    std::vector<std::uint64_t> begin(n), end(n);
    std::vector<std::thread::id> worker(n);

    const int prepare = spans.open("learn.prepare");
    const std::uint64_t prepareStart = nowNanos();
    parallelFor(n, threads, [&](std::size_t i) {
        FleetMember &member = *stack.members[i];
        const std::vector<Workload> learning = learningWorkloads(member);
        worker[i] = std::this_thread::get_id();
        begin[i] = nowNanos();
        member.controller->prepareLearning(learning);
        end[i] = nowNanos();
    });
    const double prepareWallNs =
        static_cast<double>(nowNanos() - prepareStart);
    spans.close(prepare);

    std::vector<std::thread::id> lanes;
    std::vector<double> prepareMs;
    double busyNs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        auto lane = std::find(lanes.begin(), lanes.end(), worker[i]);
        if (lane == lanes.end())
            lane = lanes.insert(lanes.end(), worker[i]);
        spans.add("core.controller.prepareLearning", begin[i], end[i],
                  prepare, static_cast<int>(lane - lanes.begin()) + 1);
        prepareMs.push_back(static_cast<double>(end[i] - begin[i]) * 1e-6);
        busyNs += static_cast<double>(end[i] - begin[i]);
    }

    std::vector<double> finalizeMs;
    std::uint64_t tunerExperiments = 0;
    std::uint64_t classesReused = 0;
    spans.time("learn.finalize", [&] {
        for (auto &member : stack.members) {
            const std::uint64_t start = nowNanos();
            const auto learned = spans.time(
                "core.controller.learnPrepared",
                [&] { return member->controller->learnPrepared(); });
            finalizeMs.push_back(secondsSince(start) * 1e3);
            tunerExperiments +=
                static_cast<std::uint64_t>(learned.tuningExperiments);
            classesReused +=
                static_cast<std::uint64_t>(learned.classesReused);
        }
    });

    const double workers = static_cast<double>(
        std::min<std::size_t>(static_cast<std::size_t>(threads), n));
    report.add("core.controller.prepare_ms.p50", medianOf(prepareMs),
               "ms");
    report.add("core.controller.prepare_ms.p99",
               quantileOf(prepareMs, 0.99), "ms");
    report.add("core.controller.finalize_ms.p50", medianOf(finalizeMs),
               "ms");
    report.add("common.parallel.efficiency",
               busyNs / (workers * prepareWallNs), "ratio");
    report.add("core.tuner.experiments",
               static_cast<double>(tunerExperiments), "count");
    report.add("core.repository.classes_reused",
               static_cast<double>(classesReused), "count");
}

void
replayLearning(FleetStack &stack, SpanLog &spans, Report &report)
{
    std::vector<double> collectUs, identifyMs, trainMs;
    spans.time("probe.learning", [&] {
        for (std::size_t i : sampledMembers(stack.members.size())) {
            FleetMember &member = *stack.members[i];
            const DejaVuController::Config &cfg =
                member.controller->config();
            std::vector<MetricSample> samples;
            for (const Workload &w : learningWorkloads(member)) {
                for (int t = 0; t < cfg.trialsPerWorkload; ++t) {
                    const std::uint64_t start = nowNanos();
                    samples.push_back(
                        member.profiler->collectSignature(w));
                    collectUs.push_back(secondsSince(start) * 1e6);
                }
            }
            ClusteringEngine engine(Rng(i + 1), cfg.clustering);
            std::uint64_t start = nowNanos();
            const ClusteringEngine::Result classes = spans.time(
                "core.clustering.identifyClasses",
                [&] { return engine.identifyClasses(samples); });
            identifyMs.push_back(secondsSince(start) * 1e3);

            ClassifierEngine::Config ccfg;
            ccfg.algorithm = cfg.algorithm;
            ccfg.certaintyThreshold = cfg.certaintyThreshold;
            ClassifierEngine classifier(ccfg);
            start = nowNanos();
            spans.time("core.classifier.train", [&] {
                classifier.train(classes.labeledSignatures);
                return 0;
            });
            trainMs.push_back(secondsSince(start) * 1e3);
        }
    });
    report.add("core.clustering.identify_ms.p50", medianOf(identifyMs),
               "ms");
    report.add("core.classifier.train_ms.p50", medianOf(trainMs), "ms");
    report.add("counters.profiler.collect_signature_us.p50",
               medianOf(collectUs), "us");
}

FleetRun
runFleet(FleetStack &stack, SpanLog *spans)
{
    const std::uint64_t start = nowNanos();
    const auto results = spans
        ? spans->time("fleet.run",
                      [&] { return stack.experiment->run(); })
        : stack.experiment->run();
    FleetRun run;
    run.runSec = secondsSince(start);
    run.events = stack.sim->queue().executed();
    run.summary = stack.experiment->summary();
    for (const auto &r : results) {
        run.sloViolationPct += 100.0 * r.result.sloViolationFraction;
        run.savingsPct += r.result.savingsPercent;
    }
    if (!results.empty()) {
        run.sloViolationPct /= static_cast<double>(results.size());
        run.savingsPct /= static_cast<double>(results.size());
    }
    return run;
}

void
addFleetRunMetrics(FleetStack &stack, const FleetRun &run,
                   SpanLog &spans, Report &report)
{
    const FleetExperiment::FleetSummary &s = run.summary;
    const std::uint64_t events = run.events;
    const double runSec = run.runSec;
    const FleetSampler *sampler = stack.experiment->sampler();
    const std::uint64_t samples = sampler ? sampler->samplesTaken() : 0;

    // Per-call costs of the two run-phase layers a fleet calls most,
    // replayed on the sampled members; their totals are estimated as
    // calls x mean cost.
    std::vector<double> sampleUs, collectUs;
    spans.time("probe.run_layers", [&] {
        for (std::size_t i : sampledMembers(stack.members.size())) {
            FleetMember &member = *stack.members[i];
            for (int c = 0; c < kSampleCalls; ++c) {
                const std::uint64_t start = nowNanos();
                (void)member.service->sample();
                sampleUs.push_back(secondsSince(start) * 1e6);
            }
            for (int c = 0; c < kSampleCalls; ++c) {
                const Workload w = reuseWorkload(member, c);
                const std::uint64_t start = nowNanos();
                (void)member.profiler->collectSignature(w);
                collectUs.push_back(secondsSince(start) * 1e6);
            }
        }
    });
    const double runUs = runSec * 1e6;
    const double sampleShare =
        100.0 * static_cast<double>(samples) * meanOf(sampleUs) / runUs;
    const double collections = static_cast<double>(
        s.signatureSlots + s.coalescedSignatures);
    const double collectShare =
        100.0 * collections * meanOf(collectUs) / runUs;

    report.add("sim.event_queue.events", static_cast<double>(events),
               "count");
    report.add("sim.run_us_per_event",
               runUs / static_cast<double>(std::max<std::uint64_t>(
                           events, 1)),
               "us");
    report.add("experiments.sampler.samples",
               static_cast<double>(samples), "count");
    report.add("services.sample_us.p50", medianOf(sampleUs), "us");
    report.add("services.sample_share_of_run", sampleShare, "%");
    report.add("counters.collect_signature_share_of_run", collectShare,
               "%");
    report.add("run.unattributed_share",
               100.0 - sampleShare - collectShare, "%");

    const double signatureDemand = static_cast<double>(
        s.signatureSlots + s.coalescedSignatures);
    report.add("profiling.signature_slots",
               static_cast<double>(s.signatureSlots), "count");
    report.add("profiling.tuner_slots",
               static_cast<double>(s.tunerSlots), "count");
    report.add("profiling.coalesced",
               static_cast<double>(s.coalescedSignatures), "count");
    report.add("profiling.coalesce_ratio",
               signatureDemand > 0.0
                   ? static_cast<double>(s.coalescedSignatures)
                       / signatureDemand
                   : 0.0,
               "ratio");
    report.add("profiling.tuner_cancelled",
               static_cast<double>(s.tunerCancelled), "count");
    report.add("profiling.cancelled_host_lost",
               static_cast<double>(s.cancelledHostLost), "count");
    report.add("profiling.queue_delay_p95_s", s.queueDelayP95Sec, "s");

    report.add("core.repository.lookups",
               static_cast<double>(s.repoLookups), "count");
    report.add("core.repository.hit_rate", s.repoHitRate, "ratio");
    report.add("core.repository.reused_entries",
               static_cast<double>(s.repoReusedEntries), "count");

    report.add("fleet.adaptations", static_cast<double>(s.adaptations),
               "count");
    report.add("fleet.adapt_p50_s", s.adaptationP50Sec, "s");
    report.add("fleet.adapt_p999_s", s.adaptationP999Sec, "s");
    report.add("fleet.slo_violation_pct", run.sloViolationPct, "%");
    report.add("fleet.savings_pct", run.savingsPct, "%");
}

Report
runFleetWorkload(const RunConfig &config)
{
    const FleetSpec &spec = specFor(config.workload);
    return config.trace ? runTraced(spec, config)
                        : runUntraced(spec, config);
}

bool
isFleetWorkload(const std::string &name)
{
    for (const FleetSpec &spec : kFleets)
        if (name == spec.name)
            return true;
    return false;
}

} // namespace perfbench
