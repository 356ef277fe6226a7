/**
 * @file
 * Fleet-wide adaptation-time tails per §3.3 slot policy, profiling
 * host-pool size and repository-sharing mode.
 *
 * A 100-service mixed fleet (KeyValue + SPECweb + RUBiS round-robin,
 * heterogeneous SLOs and profiling-slot durations) is swept under
 * each slot scheduler — FIFO, shortest-job-first, SLO-debt-first,
 * adaptive — for each host-pool size M in {1, 2, 4, 8}, across three
 * variants. Every variant routes signature collections and tuner
 * experiments through the profiling work queue:
 *
 *  - `private`: per-controller repositories.
 *  - `shared`: one cross-service repository — same-class signature
 *    collections coalesce into one slot and queued tuner items
 *    answered by a peer's repository write are cancelled.
 *  - `shared-jit`: the shared fleet with de-synchronized change
 *    arrival (deterministic per-member offsets within 45 min).
 *
 * Tabulated per cell: p50/p95/max of pool queue delay and end-to-end
 * adaptation time, the aggregate repository hit rate, reused entries,
 * and the per-item-type slot demand (signature slots vs tuner slots
 * vs collections coalesced away vs tuner items cancelled by reuse).
 * The hosts-vs-p95 knee — the smallest M past which doubling the
 * pool no longer buys a meaningful p95 cut — is located per policy
 * for every variant: does cross-service reuse shrink slot demand and
 * move the knee?
 *
 * Guarded claims (exit nonzero on failure):
 *  - determinism: byte-identical CSV digests at 1/4/8 runner threads
 *    (1/4 in --smoke);
 *  - shared hit rate strictly above private at every cell;
 *  - shared slot demand strictly below private at every cell
 *    (coalescing + cancellation actually shrink demand).
 *
 * `--smoke` runs a 10-service fleet with M in {1, 2} at 1 vs 4
 * threads — small enough for CI on every push. `--csv <path>` writes
 * the full sweep digest CSV (one row per cell) for artifact upload
 * and tools/compare_knee.py.
 *
 * Observability (docs/OBSERVABILITY.md): `--trace-out <path>` runs
 * the composed `fleet-ycsb-100+daemons+hostloss` conformance cell
 * with a TraceRecorder attached and writes the Chrome trace-event
 * JSON (load it at ui.perfetto.dev); `--metrics-out <path>` dumps
 * that cell's counters through a MetricsRegistry in the same
 * `name value` format `dejavud --report` prints. The model sweep
 * additionally gates on tracing digest parity: one cell run with a
 * recorder attached vs without must produce byte-identical sweep
 * rows (spans observe, never schedule).
 *
 * `--huge` switches to the scale gate instead of the model sweep:
 * mixed fleets of N in {1k, 10k} services (series recording off,
 * shared repository) are run through every slot policy, reporting
 * events/s, wall time and each cell's own peak RSS next to the
 * hosts-vs-p95 knee. `--json <path>` writes that machine digest (the
 * format of BENCH_fleet.json, read by tools/check_bench_regression.py
 * in CI); without it nothing is written. `--huge --smoke` shrinks N to
 * {100, 1k} for per-push CI.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "experiments/runner.hh"
#include "experiments/scenario.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace dejavu;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start).count();
}

/** Scenario name for one cell of the sweep. @p variant is the
 *  trailing "-<sharing>[-jit]" tag. */
std::string
scenarioFor(int services, int hosts, const std::string &variant)
{
    return "fleet-mixed-" + std::to_string(services) + "-h"
        + std::to_string(hosts) + "-" + variant;
}

/** The swept model variants, in presentation order. */
const char *kVariants[] = {"private", "shared", "shared-jit"};

/** (variant, policy) -> hosts-ascending rows of the sweep. */
using Progressions =
    std::map<std::pair<std::string, std::string>,
             std::vector<const FleetCellResult *>>;

/** The variant tag of a cell (scenario minus the fleet prefix and
 *  the "-h<M>" field). */
std::string
variantOf(const std::string &scenario, int services, int hosts)
{
    const std::string prefix = "fleet-mixed-"
        + std::to_string(services) + "-h" + std::to_string(hosts)
        + "-";
    DEJAVU_ASSERT(scenario.compare(0, prefix.size(), prefix) == 0,
                  "unexpected scenario name: ", scenario);
    return scenario.substr(prefix.size());
}

/** The marginal-knee rule of PR 3: the smallest M whose next
 *  doubling buys < threshold seconds of p95 per added host (0 if
 *  every doubling still pays off). */
int
kneeOf(const std::vector<const FleetCellResult *> &progression,
       double thresholdSecPerHost)
{
    for (std::size_t i = 1; i < progression.size(); ++i) {
        const auto &prev = progression[i - 1]->summary;
        const auto &cur = progression[i]->summary;
        const double marginal =
            (prev.adaptationP95Sec - cur.adaptationP95Sec)
            / static_cast<double>(cur.hosts - prev.hosts);
        if (marginal < thresholdSecPerHost)
            return prev.hosts;
    }
    return 0;
}

/** Render a knee as "M=4" or "M>8". */
std::string
kneeLabel(const std::vector<const FleetCellResult *> &progression,
          double thresholdSecPerHost)
{
    const int knee = kneeOf(progression, thresholdSecPerHost);
    if (knee > 0)
        return "M=" + std::to_string(knee);
    return "M>" + std::to_string(progression.back()->summary.hosts);
}

// --------------------------------------------------------------------
// --huge: the scale gate. Events/s, wall time and peak RSS for mixed
// fleets of up to 10k services, next to the hosts-vs-p95 knee.
// --------------------------------------------------------------------

/** One measured cell of the scale gate. */
struct HugeCell
{
    int services = 0;
    int hosts = 0;
    std::string policy;
    /** Scenario family: "mixed" for the scale plan, the "+"-suffixed
     *  family tag for conformance cells (part of the JSON cell key —
     *  see tools/check_bench_regression.py). */
    std::string mix = "mixed";
    std::uint64_t events = 0;       ///< Queue events executed.
    double learnSec = 0.0;          ///< Learning-phase wall clock.
    double runSec = 0.0;            ///< run() wall clock.
    double eventsPerSec = 0.0;      ///< events / runSec.
    /** Peak RSS from just before the cell was built to after its run
     *  (process-wide where /proc/self/clear_refs is unavailable). */
    std::uint64_t rssBytes = 0;
    FleetExperiment::FleetSummary summary;
};

/** Build, learn and run one huge-fleet cell (series recording off,
 *  shared repository — the scale-relevant configuration). */
HugeCell
runHugeCell(int services, int hosts, const std::string &policy,
            int learnThreads)
{
    static const ServiceKind kCycle[] = {
        ServiceKind::KeyValue, ServiceKind::SpecWeb,
        ServiceKind::Rubis};
    resetPeakRss();
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    FleetBuilder builder(options);
    builder.slotPolicy(slotPolicyFromName(policy))
        .profilingHosts(hosts)
        .shareRepository(RepositorySharing::Shared)
        .recordSeries(false);
    for (int i = 0; i < services; ++i)
        builder.add(kCycle[i % 3]);
    auto stack = builder.build();

    HugeCell cell;
    cell.services = services;
    cell.hosts = hosts;
    cell.policy = policy;

    const auto learnStart = std::chrono::steady_clock::now();
    stack->learnAll(learnThreads);
    cell.learnSec = secondsSince(learnStart);

    const auto runStart = std::chrono::steady_clock::now();
    stack->experiment->run();
    cell.runSec = secondsSince(runStart);

    cell.events = stack->sim->queue().executed();
    cell.eventsPerSec = cell.runSec > 0.0
        ? static_cast<double>(cell.events) / cell.runSec : 0.0;
    cell.rssBytes = peakRssBytes();
    cell.summary = stack->experiment->summary();
    return cell;
}

/** Marginal knee over huge cells (hosts-ascending). */
int
hugeKneeOf(const std::vector<const HugeCell *> &progression,
           double thresholdSecPerHost)
{
    for (std::size_t i = 1; i < progression.size(); ++i) {
        const auto &prev = progression[i - 1]->summary;
        const auto &cur = progression[i]->summary;
        const double marginal =
            (prev.adaptationP95Sec - cur.adaptationP95Sec)
            / static_cast<double>(cur.hosts - prev.hosts);
        if (marginal < thresholdSecPerHost)
            return prev.hosts;
    }
    return 0;
}

/** Emit the machine digest read by tools/check_bench_regression.py. */
void
writeHugeJson(const std::string &path, bool smoke,
              const std::vector<HugeCell> &cells,
              const std::map<std::pair<int, std::string>, int> &knees)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON to ", path);
    out << "{\n  \"bench\": \"fleet_tails_huge\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"days\": 2,\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const HugeCell &c = cells[i];
        out << "    {\"services\": " << c.services
            << ", \"hosts\": " << c.hosts
            << ", \"policy\": \"" << c.policy << "\""
            << ", \"mix\": \"" << c.mix << "\""
            << ", \"events\": " << c.events
            << ", \"learn_s\": " << c.learnSec
            << ", \"wall_s\": " << c.runSec
            << ", \"events_per_s\": " << c.eventsPerSec
            << ", \"peak_rss_bytes\": " << c.rssBytes
            << ", \"adaptations\": " << c.summary.adaptations
            << ", \"adapt_p50_s\": " << c.summary.adaptationP50Sec
            << ", \"adapt_p95_s\": " << c.summary.adaptationP95Sec
            << ", \"adapt_p999_s\": " << c.summary.adaptationP999Sec
            << ", \"adapt_max_s\": " << c.summary.adaptationMaxSec
            << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"knees\": [\n";
    std::size_t k = 0;
    for (const auto &[key, knee] : knees) {
        out << "    {\"services\": " << key.first
            << ", \"policy\": \"" << key.second << "\""
            << ", \"knee_hosts\": " << knee << "}"
            << (++k < knees.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    if (!out)
        fatal("cannot write JSON to ", path);
}

/** The --huge scale gate (replaces the model sweep); writes its
 *  digest to @p jsonPath unless that is empty. */
int
runHugeGate(bool smoke, const std::string &jsonPath)
{
    // The multi-host N locates the knee; the largest N is the
    // headline throughput/RSS cell (one pool size is enough there).
    const std::vector<std::pair<int, std::vector<int>>> plan =
        smoke ? std::vector<std::pair<int, std::vector<int>>>{
                    {100, {1, 2}}, {1000, {2}}}
              : std::vector<std::pair<int, std::vector<int>>>{
                    {1000, {1, 2, 4, 8}}, {10000, {8}}};
    const int learnThreads = std::max(
        1, std::min(8,
                    static_cast<int>(
                        std::thread::hardware_concurrency())));

    printBanner(std::cout, std::string(smoke ? "[smoke] " : "")
                + "Fleet scale gate (mixed fleets, series off, "
                "shared repo, 2 days)");

    std::vector<HugeCell> cells;
    for (const auto &[services, hostCounts] : plan)
        for (int hosts : hostCounts)
            for (const auto &policyName : slotPolicyNames()) {
                cells.push_back(runHugeCell(services, hosts,
                                            policyName,
                                            learnThreads));
                const HugeCell &c = cells.back();
                std::cout << "  N=" << c.services << " M=" << c.hosts
                          << " " << c.policy << ": "
                          << c.events << " events in "
                          << Table::num(c.runSec, 1) << " s = "
                          << Table::num(c.eventsPerSec / 1e6, 2)
                          << " M events/s (learn "
                          << Table::num(c.learnSec, 1)
                          << " s, peak RSS "
                          << Table::num(static_cast<double>(c.rssBytes)
                                        / (1024.0 * 1024.0), 0)
                          << " MiB)\n";
            }

    // ----------------------------------------------------------------
    // Scenario-family conformance cell: the composed family nothing
    // in the scale plan exercises — YCSB mixes + daemon co-runners +
    // host-loss fault injection — must digest identically at 1 vs 4
    // runner threads, keep adapting through every kill/restore cycle,
    // and orphan no profiling work.
    // ----------------------------------------------------------------
    const std::string confScenario = "fleet-ycsb-100+daemons+hostloss";
    bool conformanceOk = true;
    {
        const auto confCells =
            ExperimentRunner::grid({confScenario}, {"fifo"}, {42});
        std::string confDigests[2];
        const int confThreads[2] = {1, 4};
        for (int t = 0; t < 2; ++t) {
            const auto summaries = ExperimentRunner(
                ExperimentRunner::Config(confThreads[t]))
                .sweepInto(confCells, runFleetCell);
            std::vector<FleetCellResult> rows;
            rows.reserve(confCells.size());
            for (std::size_t i = 0; i < confCells.size(); ++i)
                rows.push_back({confCells[i], summaries[i]});
            confDigests[t] = fleetSweepCsv(rows);
        }
        const bool confDigestsMatch = confDigests[0] == confDigests[1];

        // The timed run that feeds the JSON digest (runFleetCell does
        // not expose event counts or RSS).
        HugeCell cell;
        resetPeakRss();
        const auto learnStart = std::chrono::steady_clock::now();
        auto stack =
            makeFleetScenario(confScenario, 42, SlotPolicy::Fifo);
        stack->learnAll(learnThreads);
        cell.learnSec = secondsSince(learnStart);
        stack->startInjectors();
        const auto runStart = std::chrono::steady_clock::now();
        stack->experiment->run();
        cell.runSec = secondsSince(runStart);
        cell.events = stack->sim->queue().executed();
        cell.eventsPerSec = cell.runSec > 0.0
            ? static_cast<double>(cell.events) / cell.runSec : 0.0;
        cell.rssBytes = peakRssBytes();
        cell.summary = stack->experiment->summary();
        cell.services = 100;
        cell.hosts = cell.summary.hosts;
        cell.policy = "fifo";
        cell.mix = "ycsb+daemons+hostloss";
        cells.push_back(cell);

        const auto &s = cells.back().summary;
        const bool confInvariants = s.adaptations > 0
            && s.orphanedItems == 0
            && s.hostsFailed > 0
            && s.hostsFailed == s.hostsRestored;
        conformanceOk = confDigestsMatch && confInvariants;
        std::cout << "  conformance " << confScenario
                  << ": digests 1-vs-4 threads "
                  << (confDigestsMatch ? "IDENTICAL" : "DIFFER — BUG")
                  << ", adaptations=" << s.adaptations
                  << ", hosts failed/restored=" << s.hostsFailed << "/"
                  << s.hostsRestored
                  << ", orphaned=" << s.orphanedItems
                  << (confInvariants ? "" : " ** INVARIANT BROKEN **")
                  << "\n";
    }

    Table table({"services", "hosts", "policy", "mix", "events",
                 "events_per_s", "run_s", "learn_s", "peak_rss_mib",
                 "adapt_p95_s", "adapt_p999_s"});
    for (const HugeCell &c : cells)
        table.addRow({std::to_string(c.services),
                      std::to_string(c.hosts), c.policy, c.mix,
                      std::to_string(c.events),
                      Table::num(c.eventsPerSec, 0),
                      Table::num(c.runSec, 1),
                      Table::num(c.learnSec, 1),
                      Table::num(static_cast<double>(c.rssBytes)
                                 / (1024.0 * 1024.0), 0),
                      Table::num(c.summary.adaptationP95Sec, 1),
                      Table::num(c.summary.adaptationP999Sec, 1)});
    std::cout << "\n";
    table.printText(std::cout);

    // The knee per (N, policy), from each hosts-ascending progression
    // (single-host Ns report knee 0 = not located).
    constexpr double kMarginalSecPerHost = 60.0;
    std::map<std::pair<int, std::string>, int> knees;
    for (const auto &[services, hostCounts] : plan) {
        (void)hostCounts;
        for (const auto &policyName : slotPolicyNames()) {
            std::vector<const HugeCell *> progression;
            for (const HugeCell &c : cells)
                if (c.services == services && c.policy == policyName
                    && c.mix == "mixed")
                    progression.push_back(&c);
            knees[{services, policyName}] =
                progression.size() > 1
                    ? hugeKneeOf(progression, kMarginalSecPerHost)
                    : 0;
        }
    }
    std::cout << "\nhosts-vs-p95 knee (0 = progression too short or "
              << "every doubling still pays):\n";
    for (const auto &[key, knee] : knees)
        std::cout << "  N=" << key.first << " " << key.second
                  << ": " << (knee > 0 ? "M=" + std::to_string(knee)
                                       : std::string("-"))
                  << "\n";

    if (!jsonPath.empty()) {
        writeHugeJson(jsonPath, smoke, cells, knees);
        std::cout << "\nscale digest written to " << jsonPath << "\n";
    }

    // Gate: every cell must complete its full horizon with a sane
    // event count and a nonzero adaptation tail.
    bool ok = true;
    for (const HugeCell &c : cells)
        ok = ok && c.events > 0 && c.summary.adaptations > 0;
    std::cout << "all cells completed: " << (ok ? "YES" : "NO — BUG")
              << "\n"
              << "scenario-family conformance ("
              << confScenario << "): "
              << (conformanceOk ? "PASS" : "FAIL — BUG") << "\n";
    return ok && conformanceOk ? 0 : 1;
}

// --------------------------------------------------------------------
// Observability: --trace-out / --metrics-out dumps and the tracing
// digest-parity gate (docs/OBSERVABILITY.md).
// --------------------------------------------------------------------

/** runFleetCell with an optional recorder attached — the only
 *  difference an attached recorder may make is the trace itself. */
FleetExperiment::FleetSummary
runFleetCellTraced(const SweepCell &cell, obs::TraceRecorder *trace)
{
    auto stack = makeFleetScenario(cell.scenario, cell.seed,
                                   slotPolicyFromName(cell.policy));
    if (trace)
        stack->attachTrace(*trace);
    stack->learnAll();
    stack->startInjectors();
    stack->experiment->run();
    return stack->experiment->summary();
}

/** The tracing digest-parity gate: one representative shared cell
 *  run with a recorder attached vs without must produce byte-identical
 *  sweep rows — spans observe, never schedule. */
bool
runTraceParityGate(bool smoke)
{
    const SweepCell cell{smoke ? "fleet-mixed-10-h2-shared"
                               : "fleet-mixed-100-h4-shared",
                         "fifo", 42};
    std::string csv[2];
    for (int traced = 0; traced < 2; ++traced) {
        obs::TraceRecorder recorder;
        std::vector<FleetCellResult> rows;
        rows.push_back(
            {cell,
             runFleetCellTraced(cell, traced ? &recorder : nullptr)});
        csv[traced] = fleetSweepCsv(rows);
    }
    const bool match = csv[0] == csv[1];
    std::cout << "tracing digest parity (" << cell.scenario
              << ", recorder attached vs not): "
              << (match ? "IDENTICAL" : "DIFFER — BUG") << "\n";
    return match;
}

/** Publish one fleet cell's counters into a registry — the bench side
 *  of the unified metric namespace (`fleet.*` / `sim.*` next to
 *  dejavud's `serving.*`). */
void
publishFleetMetrics(obs::MetricsRegistry &registry,
                    const FleetExperiment::FleetSummary &s,
                    std::uint64_t events)
{
    registry.counter("sim.events").inc(events);
    registry.counter("fleet.adaptations").inc(s.adaptations);
    registry.counter("fleet.slots.signature").inc(s.signatureSlots);
    registry.counter("fleet.slots.tuner").inc(s.tunerSlots);
    registry.counter("fleet.coalesced_signatures")
        .inc(s.coalescedSignatures);
    registry.counter("fleet.tuner_cancelled").inc(s.tunerCancelled);
    registry.counter("fleet.tuner_adopted").inc(s.tunerAdopted);
    registry.counter("fleet.repo.lookups").inc(s.repoLookups);
    registry.counter("fleet.repo.hits").inc(s.repoHits);
    registry.counter("fleet.repo.reused_entries")
        .inc(s.repoReusedEntries);
    registry.counter("fleet.hosts.failed").inc(s.hostsFailed);
    registry.counter("fleet.hosts.restored").inc(s.hostsRestored);
    registry.counter("fleet.orphaned_items").inc(s.orphanedItems);
    registry.setGauge("fleet.repo.hit_rate", s.repoHitRate);
    registry.setGauge("fleet.queue_p95_s", s.queueDelayP95Sec);
    registry.setGauge("fleet.adapt_p95_s", s.adaptationP95Sec);
    registry.setGauge("fleet.adapt_p999_s", s.adaptationP999Sec);
}

/** Run the conformance cell once with a recorder attached and write
 *  the requested dumps. */
void
writeObservabilityDumps(const std::string &traceOut,
                        const std::string &metricsOut)
{
    const std::string scenario = "fleet-ycsb-100+daemons+hostloss";
    obs::TraceRecorder recorder;
    auto stack = makeFleetScenario(scenario, 42, SlotPolicy::Fifo);
    stack->attachTrace(recorder);
    stack->learnAll();
    stack->startInjectors();
    stack->experiment->run();
    if (!traceOut.empty()) {
        std::ofstream out(traceOut);
        if (!out)
            fatal("cannot write trace to ", traceOut);
        recorder.writeChromeJson(out);
        out.close();
        if (!out)
            fatal("cannot write trace to ", traceOut);
        std::cout << "trace of " << scenario << " ("
                  << recorder.eventCount() << " events on "
                  << recorder.laneCount() << " lanes, "
                  << recorder.dropped()
                  << " dropped) written to " << traceOut << "\n";
    }
    if (!metricsOut.empty()) {
        obs::MetricsRegistry registry;
        publishFleetMetrics(registry, stack->experiment->summary(),
                            stack->sim->queue().executed());
        std::ofstream out(metricsOut);
        if (!out)
            fatal("cannot write metrics to ", metricsOut);
        registry.writeKv(out);
        out.close();
        if (!out)
            fatal("cannot write metrics to ", metricsOut);
        std::cout << "metrics of " << scenario << " written to "
                  << metricsOut << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);

    bool smoke = false;
    bool huge = false;
    std::string csvPath;
    std::string jsonPath;
    std::string traceOutPath;
    std::string metricsOutPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--huge") == 0) {
            huge = true;
        } else if (std::strcmp(argv[i], "--csv") == 0
                   && i + 1 < argc) {
            csvPath = argv[++i];
        } else if (std::strcmp(argv[i], "--json") == 0
                   && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-out") == 0
                   && i + 1 < argc) {
            traceOutPath = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-out") == 0
                   && i + 1 < argc) {
            metricsOutPath = argv[++i];
        } else {
            fatal("unknown argument: ", argv[i],
                  " (use --smoke, --huge, --csv <path>, "
                  "--json <path>, --trace-out <path> and/or "
                  "--metrics-out <path>)");
        }
    }

    if (!traceOutPath.empty() || !metricsOutPath.empty())
        writeObservabilityDumps(traceOutPath, metricsOutPath);

    if (huge)
        return runHugeGate(smoke, jsonPath);

    const int services = smoke ? 10 : 100;
    const std::vector<int> hostCounts =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    // Smoke guards determinism at 1-vs-4 threads on every push; the
    // full sweep also covers 8 threads (the acceptance bar).
    const std::vector<int> threadCounts =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8};

    printBanner(std::cout, std::string(smoke ? "[smoke] " : "")
                + "Fleet adaptation-time tails ("
                + std::to_string(services) + " services, "
                "KeyValue+SPECweb+RUBiS, M profiling hosts, "
                "shared vs private repository)");

    // One cell per (variant x pool size x slot policy); identical
    // fleet, identical traces — only the repository composition, the
    // arrival jitter, the host count and the grant order differ.
    std::vector<std::string> scenarios;
    for (const char *variant : kVariants)
        for (int hosts : hostCounts)
            scenarios.push_back(scenarioFor(services, hosts, variant));
    const auto cells = ExperimentRunner::grid(
        scenarios, slotPolicyNames(), {42});

    std::vector<std::string> digests;
    std::vector<double> wallClocks;
    std::vector<FleetCellResult> rows;
    for (int threads : threadCounts) {
        const auto start = std::chrono::steady_clock::now();
        const auto summaries = ExperimentRunner(
            ExperimentRunner::Config(threads)).sweepInto(cells,
                                                         runFleetCell);
        wallClocks.push_back(secondsSince(start));
        std::vector<FleetCellResult> result;
        result.reserve(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            result.push_back({cells[i], summaries[i]});
        digests.push_back(fleetSweepCsv(result));
        if (rows.empty())
            rows = std::move(result);
    }

    bool digestsMatch = true;
    for (std::size_t i = 1; i < digests.size(); ++i)
        digestsMatch = digestsMatch && digests[i] == digests[0];

    if (!csvPath.empty()) {
        std::ofstream out(csvPath);
        if (!out)
            fatal("cannot write CSV to ", csvPath);
        out << digests.front();
        out.close();
        if (!out)
            fatal("cannot write CSV to ", csvPath);
        std::cout << "sweep CSV written to " << csvPath << "\n\n";
    }

    Progressions byMode;
    for (const auto &row : rows)
        byMode[{variantOf(row.cell.scenario, services,
                          row.summary.hosts),
                row.cell.policy}].push_back(&row);

    // ----------------------------------------------------------------
    // Tails per variant.
    // ----------------------------------------------------------------
    Table table({"variant", "policy", "hosts", "adaptations",
                 "repo_hit_pct", "reused", "queue_p95_s",
                 "adapt_p50_s", "adapt_p95_s", "adapt_p999_s",
                 "adapt_max_s"});
    for (const char *variant : kVariants) {
        for (const auto &policyName : slotPolicyNames()) {
            for (const FleetCellResult *row :
                 byMode[{variant, policyName}]) {
                const auto &s = row->summary;
                table.addRow({variant, s.policy,
                              std::to_string(s.hosts),
                              std::to_string(s.adaptations),
                              Table::num(100.0 * s.repoHitRate, 2),
                              std::to_string(s.repoReusedEntries),
                              Table::num(s.queueDelayP95Sec, 1),
                              Table::num(s.adaptationP50Sec, 1),
                              Table::num(s.adaptationP95Sec, 1),
                              Table::num(s.adaptationP999Sec, 1),
                              Table::num(s.adaptationMaxSec, 1)});
            }
        }
    }
    table.printText(std::cout);

    // ----------------------------------------------------------------
    // Per-item-type slot demand: where did the pool's time go, and
    // how much demand did sharing coalesce or cancel away?
    // ----------------------------------------------------------------
    std::cout << "\nper-item-type slot demand "
              << "(slots = signature + tuner):\n";
    Table demand({"variant", "policy", "hosts", "sig_slots",
                  "tuner_slots", "coalesced", "tuner_cancelled",
                  "tuner_adopted", "slots_total"});
    bool sharedDemandBelowPrivate = true;
    for (const char *variant : {"private", "shared"}) {
        for (const auto &policyName : slotPolicyNames()) {
            for (const FleetCellResult *row :
                 byMode[{variant, policyName}]) {
                const auto &s = row->summary;
                demand.addRow(
                    {variant, s.policy, std::to_string(s.hosts),
                     std::to_string(s.signatureSlots),
                     std::to_string(s.tunerSlots),
                     std::to_string(s.coalescedSignatures),
                     std::to_string(s.tunerCancelled),
                     std::to_string(s.tunerAdopted),
                     std::to_string(s.signatureSlots
                                    + s.tunerSlots)});
            }
        }
    }
    demand.printText(std::cout);
    for (const auto &policyName : slotPolicyNames()) {
        const auto &priv = byMode[{"private", policyName}];
        const auto &shared = byMode[{"shared", policyName}];
        for (std::size_t i = 0; i < priv.size(); ++i) {
            const auto &p = priv[i]->summary;
            const auto &sh = shared[i]->summary;
            if (sh.signatureSlots + sh.tunerSlots
                >= p.signatureSlots + p.tunerSlots) {
                sharedDemandBelowPrivate = false;
                std::cout << "** shared slot demand NOT below "
                          << "private at " << policyName << " M="
                          << p.hosts << " **\n";
            }
        }
    }

    // ----------------------------------------------------------------
    // The hosts-vs-p95 knee per variant and policy — the headline:
    // does sharing move it?
    // ----------------------------------------------------------------
    constexpr double kMarginalSecPerHost = 60.0;
    std::cout << "\nhosts-vs-p95 knee (smallest M whose doubling "
              << "buys < " << Table::num(kMarginalSecPerHost, 0)
              << " s of p95 per added host):\n";
    Table knees({"policy", "private", "shared", "shared-jit"});
    for (const auto &policyName : slotPolicyNames()) {
        std::vector<std::string> row{policyName};
        for (const char *variant : kVariants) {
            const auto &progression = byMode[{variant, policyName}];
            const auto &first = progression.front()->summary;
            row.push_back(
                kneeLabel(progression, kMarginalSecPerHost) + " (p95 "
                + Table::num(first.adaptationP95Sec, 0) + "s@M="
                + std::to_string(first.hosts) + ")");
        }
        knees.addRow(row);
    }
    knees.printText(std::cout);
    std::cout << "(synchronized vs jittered arrival side by side: "
              << "compare shared with shared-jit)\n";

    // ----------------------------------------------------------------
    // Shared-vs-private hit rate.
    // ----------------------------------------------------------------
    bool sharedBeatsPrivate = true;
    std::cout << "\naggregate repository hit rate, shared vs private "
              << "(every cell must beat the baseline):\n";
    for (const auto &policyName : slotPolicyNames()) {
        std::cout << "  " << policyName << ":";
        const auto &privRows = byMode[{"private", policyName}];
        const auto &sharedRows = byMode[{"shared", policyName}];
        for (std::size_t i = 0; i < privRows.size(); ++i) {
            const auto &p = privRows[i]->summary;
            const auto &sh = sharedRows[i]->summary;
            const bool beats = sh.repoHitRate > p.repoHitRate;
            sharedBeatsPrivate = sharedBeatsPrivate && beats;
            std::cout << "  M=" << p.hosts << " "
                      << Table::num(100.0 * sh.repoHitRate, 2)
                      << "% vs "
                      << Table::num(100.0 * p.repoHitRate, 2)
                      << "%"
                      << (beats ? "" : " ** NOT ABOVE BASELINE **");
        }
        std::cout << "  ("
                  << sharedRows.back()->summary.repoReusedEntries
                  << " tuner runs avoided at M="
                  << sharedRows.back()->summary.hosts << ")\n";
    }

    const bool traceParity = runTraceParityGate(smoke);

    std::cout << "\nsweep wall clock:";
    for (std::size_t i = 0; i < threadCounts.size(); ++i)
        std::cout << (i ? ", " : " ")
                  << Table::num(wallClocks[i], 1) << " s at "
                  << threadCounts[i] << " thread"
                  << (threadCounts[i] == 1 ? "" : "s");
    std::cout << "\ndigests byte-identical at ";
    for (std::size_t i = 0; i < threadCounts.size(); ++i)
        std::cout << (i ? "/" : "") << threadCounts[i];
    std::cout << " threads: " << (digestsMatch ? "YES" : "NO — BUG")
              << "\n"
              << "shared hit rate strictly above private baseline: "
              << (sharedBeatsPrivate ? "YES" : "NO — BUG") << "\n"
              << "shared slot demand strictly below private: "
              << (sharedDemandBelowPrivate ? "YES" : "NO — BUG")
              << "\n\n";

    if (!smoke) {
        // Event-queue throughput for the 100-actor case: one full
        // fleet run, all services' drivers/probes/recorders plus the
        // fleet's slot grants interleaving on a single queue.
        printBanner(std::cout,
                    "Event-queue throughput (100-actor fleet)");
        auto stack = makeFleetScenario(
            scenarioFor(services, 4, "shared"), 42,
            SlotPolicy::Adaptive);
        stack->learnAll();
        const auto runStart = std::chrono::steady_clock::now();
        stack->experiment->run();
        const double runSec = secondsSince(runStart);
        const std::uint64_t events = stack->sim->queue().executed();
        std::cout << events << " events in " << Table::num(runSec, 2)
                  << " s of wall clock = "
                  << Table::num(
                         static_cast<double>(events) / runSec / 1e6, 2)
                  << " M events/s (simulated horizon: 2 days x "
                  << services << " services, 4 profiling hosts, "
                  "shared repository)\n";
    }

    return digestsMatch && sharedBeatsPrivate
               && sharedDemandBelowPrivate && traceParity
        ? 0
        : 1;
}
