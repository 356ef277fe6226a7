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
#include "services/keyvalue_service.hh"
#include "services/rubis_service.hh"
#include "services/specweb_service.hh"
#include "services/ycsb_service.hh"
#include "serving/wire.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
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

void
BM_KMeansAutoK(benchmark::State &state)
{
    auto &f = fixture();
    Dataset data = f.learningData();
    Standardizer std_;
    std_.fit(data);
    const Dataset scaled = std_.transform(data);
    for (auto _ : state) {
        KMeans km(Rng(7));
        benchmark::DoNotOptimize(km.runAuto(scaled));
    }
}
BENCHMARK(BM_KMeansAutoK);

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
 * The pile a fleet member actually clusters: learnAll profiles 24
 * hourly workloads trialsPerWorkload = 3 times each, so identifyClasses
 * sees 72 samples, and its O(n^2) silhouette term is 9x the 24-sample
 * case above.
 */
void
BM_FullLearningPipelineFleetPile(benchmark::State &state)
{
    auto &f = fixture();
    const LoadTrace trace = makeMessengerTrace();
    std::vector<MetricSample> samples;
    for (int h = 0; h < 24; ++h) {
        const Workload w =
            TraceDriver::workloadFor(f.service, trace, 36000.0, h);
        for (int t = 0; t < 3; ++t)
            samples.push_back(f.monitor.collect(w));
    }
    for (auto _ : state) {
        ClusteringEngine engine(Rng(9));
        benchmark::DoNotOptimize(engine.identifyClasses(samples));
    }
}
BENCHMARK(BM_FullLearningPipelineFleetPile);

/**
 * One production monitor sample — Service::sample(), which the fleet
 * sampler calls once per member per simulated minute — per service
 * kind: /0 KeyValue, /1 SPECweb, /2 RUBiS, /3 YCSB. Each runs on a
 * default 10-VM cluster with four warm instances at utilization ~0.6.
 * The loop reuses one service, so its cluster stays in cache; in a
 * fleet drain it usually does not.
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
    service->setWorkload({mix, 1000.0 * 0.6 / service->utilization()});
    state.SetLabel(service->name());
    for (auto _ : state) {
        benchmark::DoNotOptimize(service->sample());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceSample)->DenseRange(0, 3);

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
 * differs: /0 has no trace statement at all (what
 * -DDEJAVU_TRACING=0 compiles to), /1 has the statement but no
 * recorder attached (one null check), /2 records into a persistent
 * ring (steady state: slabs recycle warm).
 *
 * Measured (one box, Release, items/s = queue events/s, mean of 3
 * repetitions, run-to-run cv 3-7%):
 *
 *     state               items/s     vs compiled-out
 *     /0 compiled-out      ~8.4 M           —
 *     /1 attached-off      ~8.6 M       noise-level
 *     /2 tracing on        ~8.3 M       ~1% (within noise)
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
                        DEJAVU_TRACE(if (trace) trace->instant(
                            lane, "tick", gTickQueue->now()));
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

} // namespace
} // namespace dejavu
