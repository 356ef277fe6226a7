/**
 * @file
 * Micro-benchmarks (google-benchmark) for DejaVu's core operations.
 *
 * §3.5 claims "the classification time [is] practically negligible" —
 * these benchmarks quantify the wall-clock cost of every step on the
 * runtime path (signature collection, classification, repository
 * lookup) and of the learning-phase algorithms (k-means, C4.5
 * training, CFS selection).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/trace.hh"
#include "core/clustering_engine.hh"
#include "core/shared_repository.hh"
#include "counters/monitor.hh"
#include "experiments/actors.hh"
#include "ml/decision_tree.hh"
#include "ml/feature_selection.hh"
#include "ml/kmeans.hh"
#include "profiling/work_queue.hh"
#include "services/keyvalue_service.hh"
#include "services/rubis_service.hh"
#include "services/specweb_service.hh"
#include "services/ycsb_service.hh"
#include "serving/wire.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "workload/trace_library.hh"

namespace dejavu {
namespace {

struct MicroFixture
{
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(3)};
    Monitor monitor{service,
                    CounterModel(ServiceKind::KeyValue, Rng(5))};

    Dataset learningData()
    {
        Dataset d(Monitor::metricNames());
        int label = 0;
        for (double clients : {3000.0, 9000.0, 20000.0, 33000.0}) {
            for (int t = 0; t < 12; ++t)
                d.add(monitor.collect(
                          {cassandraUpdateHeavy(), clients}).values,
                      label);
            ++label;
        }
        return d;
    }
};

/**
 * The pile a fleet member clusters: learnAll profiles 24 hourly
 * workloads trialsPerWorkload = 3 times each. Collected on a fresh
 * fixture, so it does not depend on which benchmarks ran before.
 */
std::vector<MetricSample>
fleetPile()
{
    setLogLevel(LogLevel::Silent);
    MicroFixture f;
    const LoadTrace trace = makeMessengerTrace();
    std::vector<MetricSample> samples;
    for (int h = 0; h < 24; ++h) {
        const Workload w =
            TraceDriver::workloadFor(f.service, trace, 36000.0, h);
        for (int t = 0; t < 3; ++t)
            samples.push_back(f.monitor.collect(w));
    }
    return samples;
}

MicroFixture &
fixture()
{
    static auto *f = [] {
        setLogLevel(LogLevel::Silent);
        return new MicroFixture;
    }();
    return *f;
}

void
BM_SignatureCollection(benchmark::State &state)
{
    auto &f = fixture();
    f.service.setWorkload({cassandraUpdateHeavy(), 20000.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.monitor.collect());
    }
}
BENCHMARK(BM_SignatureCollection);

void
BM_Classification(benchmark::State &state)
{
    auto &f = fixture();
    const Dataset data = f.learningData();
    DecisionTree tree;
    tree.train(data);
    const auto probe = f.monitor.collect(
        {cassandraUpdateHeavy(), 15000.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.predict(probe.values));
    }
}
BENCHMARK(BM_Classification);

void
BM_RepositoryLookup(benchmark::State &state)
{
    // The path a controller runs: a handle on its (unshared) cache.
    SharedRepository shared;
    RepositoryHandle repo = shared.attach(ServiceKind::KeyValue);
    for (int c = 0; c < 8; ++c)
        for (int b = 0; b < 4; ++b)
            repo.store({c, b}, {c + 1, InstanceType::Large});
    int c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(repo.lookup({c % 8, c % 4}));
        ++c;
    }
}
BENCHMARK(BM_RepositoryLookup);

/** One monitor signature: the values a dejavud Sample frame carries
 *  (54 doubles). */
std::vector<double>
wireSampleValues()
{
    return fixture().monitor.collect({cassandraUpdateHeavy(), 9000.0})
        .values;
}

/** The client's half of the sample codec: one Sample frame per
 *  iteration into a reused scratch frame, as ServingClient::decide
 *  does per lookup. */
void
BM_WireEncodeSample(benchmark::State &state)
{
    const std::vector<double> values = wireSampleValues();
    serving::WireFrame frame;
    std::uint32_t seq = 0;
    for (auto _ : state) {
        serving::encodeSampleInto(frame, 7, seq++, values);
        benchmark::DoNotOptimize(frame.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireEncodeSample);

/** The server's half: decode that frame into a reused SampleMsg, as
 *  ServingServer::serve does per lookup. */
void
BM_WireDecodeSample(benchmark::State &state)
{
    serving::WireFrame frame;
    serving::encodeSampleInto(frame, 7, 0, wireSampleValues());
    serving::SampleMsg msg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(serving::decodeSampleInto(frame, msg));
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireDecodeSample);

/**
 * runAuto() on two piles. /0: the 48 samples of learningData() over
 * the default KMeans::Config (k 2–8). /1: the shape a fleet member
 * clusters, 72 standardized samples over all 54 metrics with k 3–6,
 * as ClusteringEngine configures its provisional clustering.
 *
 * The k-means that seeds from the pairwise matrix, measures eight
 * points per pass and stops a converged restart before its last
 * update moved these medians of 5 repetitions (RelWithDebInfo, 4-vCPU
 * container, two alternating runs per side, before -> after): /0
 * 1.50-1.52 -> 0.57-0.79 ms, /1 1.50-1.52 -> 0.84-0.89 ms, and
 * BM_FullLearningPipelineFleetPile 2.45-2.71 -> 1.71-1.84 ms.
 */
void
BM_KMeansAutoK(benchmark::State &state)
{
    Dataset data(Monitor::metricNames());
    KMeans::Config config;
    if (state.range(0) == 0) {
        data = fixture().learningData();
    } else {
        for (const MetricSample &s : fleetPile())
            data.add(s.values);
        config = ClusteringEngine::Config().kmeans;
    }
    Standardizer std_;
    std_.fit(data);
    const Dataset scaled = std_.transform(data);
    for (auto _ : state) {
        KMeans km(Rng(7), config);
        benchmark::DoNotOptimize(km.runAuto(scaled));
    }
}
BENCHMARK(BM_KMeansAutoK)->Arg(0)->Arg(1);

void
BM_C45Training(benchmark::State &state)
{
    auto &f = fixture();
    const Dataset data = f.learningData();
    for (auto _ : state) {
        DecisionTree tree;
        tree.train(data);
        benchmark::DoNotOptimize(tree.numNodes());
    }
}
BENCHMARK(BM_C45Training);

void
BM_CfsSelection(benchmark::State &state)
{
    auto &f = fixture();
    const Dataset data = f.learningData();
    for (auto _ : state) {
        CfsSubsetSelector selector;
        benchmark::DoNotOptimize(selector.select(data));
    }
}
BENCHMARK(BM_CfsSelection);

void
BM_FullLearningPipeline(benchmark::State &state)
{
    auto &f = fixture();
    std::vector<MetricSample> samples;
    for (double clients : {3000.0, 9000.0, 20000.0, 33000.0})
        for (int t = 0; t < 6; ++t)
            samples.push_back(
                f.monitor.collect({cassandraUpdateHeavy(), clients}));
    for (auto _ : state) {
        ClusteringEngine engine(Rng(9));
        benchmark::DoNotOptimize(engine.identifyClasses(samples));
    }
}
BENCHMARK(BM_FullLearningPipeline);

/**
 * The pile a fleet member actually clusters: 72 samples, so
 * identifyClasses' O(n^2) silhouette term is 9x the 24-sample case
 * above.
 */
void
BM_FullLearningPipelineFleetPile(benchmark::State &state)
{
    const std::vector<MetricSample> samples = fleetPile();
    for (auto _ : state) {
        ClusteringEngine engine(Rng(9));
        benchmark::DoNotOptimize(engine.identifyClasses(samples));
    }
}
BENCHMARK(BM_FullLearningPipelineFleetPile);

/**
 * One production monitor sample — Service::sample(), which the fleet
 * sampler calls once per member per simulated minute — per service
 * kind (first argument): /0 KeyValue, /1 SPECweb, /2 RUBiS, /3 YCSB.
 * Each runs on a default 10-VM cluster with four warm instances at
 * utilization ~0.6. The second argument says what moves between
 * samples: /0 nothing, so every sample after the first reuses the
 * memoized latency and QoS (a member between workload changes, most
 * fleet samples); /1 the client count, alternating between two values
 * through setWorkload(), so every sample re-runs both curves. The loop
 * reuses one service, so its cluster stays in cache; in a fleet drain
 * it usually does not.
 */
void
BM_ServiceSample(benchmark::State &state)
{
    EventQueue queue;
    Cluster cluster(queue, {});
    cluster.setActiveInstances(4);
    queue.runUntil(minutes(1));
    std::unique_ptr<Service> service;
    RequestMix mix;
    switch (state.range(0)) {
      case 0:
        service = std::make_unique<KeyValueService>(queue, cluster,
                                                    Rng(3));
        mix = cassandraUpdateHeavy();
        break;
      case 1:
        service = std::make_unique<SpecWebService>(queue, cluster,
                                                   Rng(3));
        mix = specwebSupport();
        break;
      case 2:
        service = std::make_unique<RubisService>(queue, cluster, Rng(3));
        mix = rubisBidding();
        break;
      default:
        service = std::make_unique<YcsbService>(queue, cluster, Rng(3));
        mix = ycsbUpdateHeavy();
        break;
    }
    service->setWorkload({mix, 1000.0});
    const double clients = 1000.0 * 0.6 / service->utilization();
    const Workload workloads[2] = {{mix, clients}, {mix, clients * 1.1}};
    service->setWorkload(workloads[0]);
    const bool changing = state.range(1) != 0;
    state.SetLabel(service->name() + (changing ? " changing" : " steady"));
    std::size_t next = 0;
    for (auto _ : state) {
        if (changing)
            service->setWorkload(workloads[++next & 1]);
        benchmark::DoNotOptimize(service->sample());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceSample)->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

/**
 * Event-queue hot path at fleet scale: N actors each running a
 * 1-minute periodic probe (the production monitor cadence) for one
 * simulated hour. Items processed = events executed, so the reported
 * rate is queue throughput in events/second.
 *
 * Before/after the slot-recycling + reservable queue (one box,
 * RelWithDebInfo, 1-minute cadence, 1 simulated hour):
 *
 *     actors   items/s before   items/s after
 *      1 000        ~11.6 M         ~13.8 M
 *     10 000         ~7.5 M          ~9.4 M
 *
 * (BM_EventQueueCancelChurn moved more: ~2.9/2.4/1.9 M items/s ->
 * ~5.2/4.2/3.5 M at 100/1k/10k actors, since cancel now just bumps a
 * slot generation instead of erasing a map node.) The win is
 * allocation-shape, not algorithmic: recurring events keep one pooled
 * slot for the whole run instead of a new map node per fire, and the
 * heap is a reservable vector.
 */
void
BM_EventQueuePeriodicFleet(benchmark::State &state)
{
    const int actors = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue q;
        for (int i = 0; i < actors; ++i)
            q.schedulePeriodic(seconds(i % 60), minutes(1), [] {});
        events += q.runUntil(hours(1));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["peak_rss_mib"] = benchmark::Counter(
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
}
BENCHMARK(BM_EventQueuePeriodicFleet)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

/**
 * Same workload with the slot table and heap pre-sized via reserve()
 * — what Simulation::reserveActors and FleetBuilder::build do for a
 * 10k-service fleet. Isolates the growth-free steady state from
 * doubling-growth noise in the unreserved variant.
 */
void
BM_EventQueuePeriodicFleetReserved(benchmark::State &state)
{
    const int actors = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue q;
        q.reserve(static_cast<std::size_t>(actors) + 8);
        for (int i = 0; i < actors; ++i)
            q.schedulePeriodic(seconds(i % 60), minutes(1), [] {});
        events += q.runUntil(hours(1));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["peak_rss_mib"] = benchmark::Counter(
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
}
BENCHMARK(BM_EventQueuePeriodicFleetReserved)->Arg(1000)->Arg(10000);

/**
 * Cancellation-heavy churn: every actor re-arms a watchdog timeout
 * each second (cancel + reschedule), leaving one stale heap entry per
 * tick — the lazy-deletion pattern the fleet's adaptation timeouts
 * produce. Stresses cancel() and the dead-entry skip in the pop path.
 */
void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    const int actors = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue q;
        std::vector<EventId> timeout(static_cast<std::size_t>(actors),
                                     kInvalidEvent);
        std::function<void(int)> tick = [&](int a) {
            q.cancel(timeout[static_cast<std::size_t>(a)]);
            timeout[static_cast<std::size_t>(a)] =
                q.scheduleAfter(minutes(5), [] {});
            q.scheduleAfter(seconds(1), [&tick, a] { tick(a); });
        };
        for (int a = 0; a < actors; ++a)
            q.schedule(0, [&tick, a] { tick(a); });
        events += q.runUntil(minutes(2));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["peak_rss_mib"] = benchmark::Counter(
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(100)->Arg(1000)->Arg(10000);

/** The running queue of BM_PeriodicFleetTracing — a file-scope
 *  pointer so the tick closures stay within std::function's inline
 *  buffer (capturing &q too would heap-allocate every closure, which
 *  costs more than the tracing being measured). */
EventQueue *gTickQueue = nullptr;

/**
 * Tracing overhead on the periodic-fleet hot path
 * (docs/OBSERVABILITY.md): 1k actors, 1-minute cadence, 1 simulated
 * hour, one instant traced per queue event — the densest
 * instrumentation the tree ever emits (real call sites trace well
 * under one event per queue event). Three states of the cost
 * contract, with byte-identical closures so only the traced work
 * differs: /0 has no trace statement at all, /1 has the statement
 * but no recorder attached (one null check), /2 records into a
 * persistent ring (steady state: slabs recycle warm).
 *
 * Measured (one box, Release, items/s = queue events/s, mean of 3
 * repetitions, run-to-run cv 3-7%):
 *
 *     state                    items/s     vs no statement
 *     /0 no trace statement     ~8.4 M           —
 *     /1 attached-off           ~8.6 M       noise-level
 *     /2 tracing on             ~8.3 M       ~1% (within noise)
 *
 * The acceptance bar is <= 10% for tracing on. BM_TraceRecorderAppend
 * below prices the raw slab write (~4.6 ns/event); per-event cost
 * only exceeds that when the ring is cold (first fill) — steady
 * state recycles warm slabs.
 */
void
BM_PeriodicFleetTracing(benchmark::State &state)
{
    constexpr int kActors = 1000;
    const int mode = static_cast<int>(state.range(0));
    obs::TraceRecorder recorder;  // outlives iterations: warm ring
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue q;
        gTickQueue = &q;
        obs::TraceRecorder *trace = mode == 2 ? &recorder : nullptr;
        const obs::LaneId lane =
            mode == 2 ? recorder.lane("bench/ticks") : 0;
        for (int i = 0; i < kActors; ++i) {
            if (mode == 0)
                q.schedulePeriodic(seconds(i % 60), minutes(1),
                                   [trace, lane] {
                                       (void)trace;
                                       (void)lane;
                                   });
            else
                q.schedulePeriodic(
                    seconds(i % 60), minutes(1), [trace, lane] {
                        if (trace)
                            trace->instant(lane, "tick",
                                           gTickQueue->now());
                    });
        }
        events += q.runUntil(hours(1));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    if (mode == 2)
        state.counters["traced_events"] = benchmark::Counter(
            static_cast<double>(recorder.eventCount()
                                + recorder.dropped()));
}
BENCHMARK(BM_PeriodicFleetTracing)->Arg(0)->Arg(1)->Arg(2);

/** Raw recorder append throughput: the bump-pointer slab write that
 *  bounds every instrumented hot path. */
void
BM_TraceRecorderAppend(benchmark::State &state)
{
    obs::TraceRecorder::Config config;
    config.maxEvents = std::size_t{1} << 16;
    obs::TraceRecorder recorder(config);
    const obs::LaneId lane = recorder.lane("bench/append");
    std::int64_t ts = 0;
    for (auto _ : state) {
        recorder.instant(lane, "tick", ts++);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecorderAppend);

/**
 * One grant-and-release cycle of the profiling work queue at a fixed
 * waiting depth (second argument: 8, 64 or 512 entries) under
 * shortest-job-first (first argument /0) or SLO-debt-first (/1). One
 * host; items carry cycling durations and 2 x depth owners, and every
 * third submit puts its owner one violation deeper in debt. Each
 * iteration submits one item and runs the next two events: the busy
 * host's release, whose dispatch refreshes the waiting view's debts,
 * picks and grants one entry, then that grant's slot start. The depth
 * therefore stays put, and the time per iteration is the queue's
 * per-grant cost at that depth.
 */
void
BM_WorkQueueGrant(benchmark::State &state)
{
    const bool debtFirst = state.range(0) != 0;
    const auto depth = static_cast<std::size_t>(state.range(1));
    Simulation sim(1);
    ProfilingWorkQueue queue(
        sim,
        makeSlotScheduler(debtFirst ? SlotPolicy::SloDebtFirst
                                    : SlotPolicy::ShortestJobFirst),
        1);
    std::size_t next = 0;
    const auto submitOne = [&] {
        WorkItem item;
        item.owner = next % (2 * depth);
        item.duration = seconds(10 + static_cast<SimTime>(next * 7 % 23));
        if (next % 3 == 0)
            queue.addDebt(item.owner, 1.0);
        ++next;
        queue.submit(item, [](const ProfilingWorkQueue::WorkGrant &g) {
            return g.item->duration;
        });
    };
    // The first item takes the host at once; run its slot start so
    // only its release is pending.
    for (std::size_t i = 0; i <= depth; ++i)
        submitOne();
    sim.queue().step();
    for (auto _ : state) {
        submitOne();
        // The release, whose dispatch grants one entry, then that
        // grant's slot start.
        benchmark::DoNotOptimize(sim.queue().step());
        benchmark::DoNotOptimize(sim.queue().step());
    }
    if (queue.waitingEntries() != depth)
        state.SkipWithError("waiting depth drifted");
    state.SetLabel(debtFirst ? "slo-debt" : "sjf");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkQueueGrant)->ArgsProduct({{0, 1}, {8, 64, 512}});

} // namespace
} // namespace dejavu
