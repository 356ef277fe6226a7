/**
 * @file
 * The serving workloads: a dejavud ServingServer, set up the way the
 * daemon starts (serving bootstrap, repository reloaded at 8 shards),
 * answering closed-loop lookups from 10k open sessions — called
 * directly, or over its AF_UNIX socket front-end. Also the
 * serving-stage probe the fleet workloads reuse.
 *
 * Every lookup's answer is checked against the answer the same sample
 * got in an untimed pass, which itself must be identical over the
 * socket and over direct calls.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "harness.hh"
#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/socket.hh"
#include "serving/wire.hh"

using namespace dejavu;
using namespace dejavu::serving;

namespace perfbench {

namespace {

/** Latency budget of the benchmark's daemon. An answer slower than
 *  this is replaced by the full-capacity fallback and counts as a
 *  failed lookup. dejavud's 250 us default is crossed whenever the
 *  machine preempts a client for a scheduler slice, which says
 *  nothing about the daemon. */
constexpr std::uint64_t kBudgetNanos = 100'000'000;
constexpr int kShards = 8;  ///< dejavud's default.
/** Every run bootstraps the daemon from the same learned fleet, as a
 *  deployment restarts from its saved repository: the learned models
 *  set the cost of a lookup, and a seed-drawn model would make the
 *  benchmark measure which model it drew. --seed draws the traffic. */
constexpr std::uint64_t kBootstrapSeed = 42;
/** Signatures collected per kind, of which each run's traffic is a
 *  seeded draw of kSamplePoolPerKind. */
constexpr int kCollectedPerKind = 1024;
constexpr int kSamplePoolPerKind = 64;
/** Set-ups per untraced run; setup_s is their median. */
constexpr std::size_t kSetups = 9;
constexpr int kLearnThreads = 4;
constexpr double kWarmupSec = 1.0;
/** Timed round trips kept per client thread: a uniform reservoir,
 *  allocated before timing so memory does not grow with throughput. */
constexpr std::size_t kReservoir = std::size_t{1} << 17;
/** @name Stage probe sizes @{ */
constexpr int kProbeRounds = 8;
constexpr int kProbeBatch = 32;
constexpr int kProbeSessions = 1000;
/** @} */

struct ServingSpec
{
    const char *name;
    bool socket;
    int sessions;
    int smokeSessions;
    /** Closed-loop client threads (socket: one connection each). */
    int clients;
};

const ServingSpec kServing[] = {
    {"serve-direct", false, 10000, 1000, 1},
    {"serve-socket", true, 10000, 1000, 2},
};

const ServingSpec &
specFor(const std::string &name)
{
    for (const ServingSpec &spec : kServing)
        if (name == spec.name)
            return spec;
    fatal("unknown serving workload ", name);
}

/** Keeps the compiler from discarding the probe loops' results. */
volatile std::uint64_t gSink = 0;

/** The bit-compared content of an answer (session and seq excluded). */
struct AnswerKey
{
    std::uint8_t kind = 0;
    std::int32_t classId = -1;
    std::uint64_t certaintyBits = 0;
    std::int32_t bucketUsed = -1;
    ResourceAllocation allocation;

    bool operator==(const AnswerKey &o) const
    {
        return kind == o.kind && classId == o.classId
            && certaintyBits == o.certaintyBits
            && bucketUsed == o.bucketUsed && allocation == o.allocation;
    }
};

AnswerKey
keyOf(const AnswerMsg &a)
{
    return {a.kind, a.classId, a.certaintyBits, a.bucketUsed,
            a.allocation};
}

/** Per-kind sample pools, fallbacks and expected answers. */
struct Traffic
{
    std::vector<ServiceKind> kinds;
    std::vector<std::vector<MetricSample>> samples;
    std::vector<ResourceAllocation> fallbacks;
    std::vector<std::vector<AnswerKey>> expected;
};

/** One set-up daemon with every session open. */
struct Rig
{
    std::unique_ptr<ServingBootstrap> bootstrap;
    Traffic traffic;
    std::unique_ptr<SocketServer> socket;
    /** Socket workload: one connection per client thread. */
    std::vector<std::unique_ptr<SocketClient>> connections;
    /** Per client thread: its sessions and their pool indices. */
    std::vector<std::vector<ServingClient>> sessions;
    std::vector<std::vector<int>> kindOf;
    double rssPerSessionKib = 0.0;

    ServingServer &server() { return *bootstrap->server; }
};

/** makeServingBootstrap with FleetStack::learnAll replaced by the
 *  instrumented learning phase; the traced run checks that both
 *  answer alike. */
std::unique_ptr<ServingBootstrap>
bootstrapInstrumented(const BootstrapOptions &options, SpanLog &spans,
                      Report &report)
{
    auto b = std::make_unique<ServingBootstrap>();
    b->options = options;
    ScenarioOptions scenario;
    scenario.seed = options.seed;
    scenario.days = options.days;
    b->stack = makeMixedFleet(3, scenario, SlotPolicy::Fifo, 1,
                              RepositorySharing::Shared);
    learnInstrumented(*b->stack, options.learnThreads, spans, report);
    std::stringstream persisted;
    b->stack->experiment->sharedRepository()->save(persisted);
    b->repo = std::make_unique<SharedRepository>(SharedRepository::load(
        persisted, SharedRepository::Mode::Shared, ServiceKind::Generic,
        options.shards));
    ServingServer::Config config;
    config.budgetNanos = options.budgetNanos;
    config.maxSessions = options.maxSessions;
    b->server = std::make_unique<ServingServer>(*b->repo, config);
    for (auto &member : b->stack->members)
        b->server->registerModel(member->service->kind(),
                                 member->controller->servingModel());
    return b;
}

/** Run @p fn(t) on @p threads threads and join them. */
template <typename Fn>
void
onThreads(int threads, Fn &&fn)
{
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(fn, t);
    for (auto &thread : pool)
        thread.join();
}

/** Start the daemon: bootstrap, widen the repository to 64 classes x
 *  4 buckets per kind (a 10k-service table), open every session and
 *  send each one sample (which caches its repository snapshot). */
std::unique_ptr<Rig>
setUp(const ServingSpec &spec, const RunConfig &config, SpanLog *spans,
      Report &report)
{
    auto rig = std::make_unique<Rig>();
    BootstrapOptions options;
    options.seed = kBootstrapSeed;
    options.shards = kShards;
    options.budgetNanos = kBudgetNanos;
    options.learnThreads = kLearnThreads;
    rig->bootstrap = spans
        ? bootstrapInstrumented(options, *spans, report)
        : makeServingBootstrap(options);
    Traffic &traffic = rig->traffic;
    Rng draw(config.seed);
    for (auto &member : rig->bootstrap->stack->members) {
        const ServiceKind kind = member->service->kind();
        widenRepository(*rig->bootstrap->repo, kind,
                        /*firstClassId=*/1000, /*classes=*/64,
                        /*buckets=*/4, ResourceAllocation{});
        std::vector<MetricSample> samples =
            rig->bootstrap->collectSamples(kind, kCollectedPerKind);
        for (int i = 0; i < kSamplePoolPerKind; ++i)
            std::swap(samples[static_cast<std::size_t>(i)],
                      samples[static_cast<std::size_t>(
                          draw.uniformInt(i, kCollectedPerKind - 1))]);
        samples.resize(kSamplePoolPerKind);
        traffic.kinds.push_back(kind);
        traffic.samples.push_back(std::move(samples));
        traffic.fallbacks.push_back(member->cluster->maxAllocation());
    }

    if (spec.socket) {
        rig->socket = std::make_unique<SocketServer>(rig->server(),
                                                     socketPath(config));
        if (!rig->socket->start())
            fatal("cannot listen on ", socketPath(config));
        for (int t = 0; t < spec.clients; ++t) {
            rig->connections.push_back(
                std::make_unique<SocketClient>(socketPath(config)));
            if (!rig->connections.back()->connected())
                fatal("cannot connect to ", socketPath(config));
        }
    }

    const int sessions = config.smoke ? spec.smokeSessions
                                      : spec.sessions;
    rig->sessions.resize(static_cast<std::size_t>(spec.clients));
    rig->kindOf.resize(static_cast<std::size_t>(spec.clients));
    std::vector<int> rejected(static_cast<std::size_t>(spec.clients), 0);
    const double rssBefore = currentRssKib();
    onThreads(spec.clients, [&](int t) {
        const auto tt = static_cast<std::size_t>(t);
        for (int s = t; s < sessions; s += spec.clients) {
            const int k = s % static_cast<int>(traffic.kinds.size());
            const auto kk = static_cast<std::size_t>(k);
            ServingClient client =
                spec.socket ? ServingClient(*rig->connections[tt])
                            : ServingClient(rig->server());
            if (!client.hello(traffic.kinds[kk], traffic.fallbacks[kk],
                              "perfbench")) {
                ++rejected[tt];
                continue;
            }
            (void)client.decide(traffic.samples[kk].front().values);
            rig->sessions[tt].push_back(std::move(client));
            rig->kindOf[tt].push_back(k);
        }
    });
    rig->rssPerSessionKib =
        (currentRssKib() - rssBefore) / static_cast<double>(sessions);
    int refused = 0;
    for (int r : rejected)
        refused += r;
    report.check(refused == 0,
                 std::to_string(refused) + " sessions refused");
    return rig;
}

/** Close every session (and the socket front-end); checks that the
 *  daemon saw every one closed. */
void
tearDown(Rig &rig, Report &report)
{
    onThreads(static_cast<int>(rig.sessions.size()), [&](int t) {
        for (ServingClient &client :
             rig.sessions[static_cast<std::size_t>(t)])
            client.bye();
    });
    rig.sessions.clear();
    for (auto &connection : rig.connections)
        connection->close();
    report.check(waitForCloses(rig.server()),
                 "sessions left open after every client sent Bye");
    if (rig.socket)
        rig.socket->stop();
}

/** The untimed pass: every pool sample's answer, directly and over the
 *  socket; they must be identical. Fills traffic.expected. */
void
conformance(Rig &rig, const RunConfig &config, Report &report)
{
    Traffic &traffic = rig.traffic;
    ServingServer &server = rig.server();
    const std::uint64_t rigSessions = openSessions(server);
    traffic.expected.assign(traffic.kinds.size(), {});
    for (std::size_t k = 0; k < traffic.kinds.size(); ++k) {
        ServingClient client(server);
        report.check(client.hello(traffic.kinds[k], traffic.fallbacks[k],
                                  "conformance"),
                     "conformance session refused");
        for (const MetricSample &sample : traffic.samples[k])
            traffic.expected[k].push_back(
                keyOf(client.decide(sample.values)));
        client.bye();
    }

    std::unique_ptr<SocketServer> own;
    if (!rig.socket) {
        own = std::make_unique<SocketServer>(server, socketPath(config));
        if (!own->start())
            fatal("cannot listen on ", socketPath(config));
    }
    std::uint64_t mismatches = 0;
    {
        SocketClient connection(socketPath(config));
        if (!connection.connected())
            fatal("cannot connect to ", socketPath(config));
        for (std::size_t k = 0; k < traffic.kinds.size(); ++k) {
            ServingClient client(connection);
            report.check(client.hello(traffic.kinds[k],
                                      traffic.fallbacks[k],
                                      "conformance"),
                         "conformance socket session refused");
            for (std::size_t i = 0; i < traffic.samples[k].size(); ++i)
                if (!(keyOf(client.decide(traffic.samples[k][i].values))
                      == traffic.expected[k][i]))
                    ++mismatches;
            client.bye();
        }
    }
    report.check(mismatches == 0,
                 std::to_string(mismatches)
                     + " socket answers differ from direct answers");
    report.check(waitForCloses(server, rigSessions),
                 "conformance sessions left open");
    if (own)
        own->stop();
}

/** One client thread's tallies. */
struct ClientTally
{
    std::vector<std::uint64_t> ops;  ///< Lookups per slice.
    std::uint64_t breaches = 0;
    std::uint64_t mismatches = 0;
    /** A uniform reservoir of timed round trips (ns). */
    std::vector<std::uint32_t> kept;
    std::uint64_t seen = 0;  ///< Round trips timed.
    std::uint64_t rng = 0;

    ClientTally(std::size_t slices, std::uint64_t seed)
        : ops(slices, 0), kept(kReservoir, 0), rng(seed)
    {
    }

    void record(std::uint64_t nanos)
    {
        const auto v = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(nanos, 0xffffffffu));
        if (seen < kReservoir) {
            kept[seen] = v;
        } else {
            rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint64_t j = (rng >> 11) % (seen + 1);
            if (j < kReservoir)
                kept[j] = v;
        }
        ++seen;
    }
};

/** A timed window of closed-loop lookups, counted in slices. */
struct Window
{
    double seconds = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t breaches = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t timed = 0;             ///< Round trips timed (1 in 8).
    std::vector<double> slicePerSecond;  ///< Lookups/s per slice.
    std::vector<double> lookupUs;        ///< Every kept round trip.

    /** Median slice: a stall of the machine for part of the window
     *  moves few slices, not the median. */
    double perSecond() const { return medianOf(slicePerSecond); }
};

/**
 * Every client thread cycles its sessions, each lookup cycling its
 * kind's sample pool and waiting for the answer before the next (a
 * closed loop: a controller waits for its allocation). After
 * @p warmupSec untimed, lookups are counted for @p seconds, in slices
 * of about a second (at least four), and one in eight is timed — the
 * clock reads would otherwise tax the throughput measured.
 */
Window
measure(Rig &rig, double warmupSec, double seconds)
{
    const auto slices = static_cast<std::size_t>(
        std::max(4L, std::lround(seconds)));
    const std::size_t clients = rig.sessions.size();
    std::vector<ClientTally> tallies;
    for (std::size_t t = 0; t < clients; ++t)
        tallies.emplace_back(slices, t + 1);
    // -1 warm-up, then the current slice; `slices` stops the clients.
    std::atomic<long> slice{-1};
    const Traffic &traffic = rig.traffic;

    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < clients; ++t) {
        pool.emplace_back([&, t] {
            std::vector<ServingClient> &mine = rig.sessions[t];
            const std::vector<int> &kinds = rig.kindOf[t];
            ClientTally &tally = tallies[t];
            std::size_t s = 0;
            for (std::uint64_t op = 0;; ++op) {
                const long now = slice.load(std::memory_order_relaxed);
                if (now == static_cast<long>(slices))
                    break;
                const auto k = static_cast<std::size_t>(kinds[s]);
                const std::vector<MetricSample> &samples =
                    traffic.samples[k];
                const std::size_t i = op % samples.size();
                AnswerMsg answer;
                if (now >= 0 && (op & 7) == 0) {
                    const std::uint64_t start = nowNanos();
                    answer = mine[s].decide(samples[i].values);
                    tally.record(nowNanos() - start);
                } else {
                    answer = mine[s].decide(samples[i].values);
                }
                if (now >= 0) {
                    ++tally.ops[static_cast<std::size_t>(now)];
                    if (answer.flags & AnswerMsg::kBudgetBreached)
                        ++tally.breaches;
                    else if (!(keyOf(answer) == traffic.expected[k][i]))
                        ++tally.mismatches;
                }
                if (++s == mine.size())
                    s = 0;
            }
        });
    }
    using Clock = std::chrono::steady_clock;
    std::this_thread::sleep_for(std::chrono::duration<double>(warmupSec));
    const auto sliceLength = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / slices));
    const Clock::time_point begin = Clock::now();
    std::vector<std::uint64_t> stamps{nowNanos()};
    slice.store(0, std::memory_order_relaxed);
    for (std::size_t i = 1; i <= slices; ++i) {
        std::this_thread::sleep_until(begin + sliceLength * i);
        stamps.push_back(nowNanos());
        slice.store(static_cast<long>(i), std::memory_order_relaxed);
    }
    for (auto &thread : pool)
        thread.join();

    Window window;
    window.seconds = static_cast<double>(stamps.back() - stamps.front())
        * 1e-9;
    for (std::size_t i = 0; i < slices; ++i) {
        std::uint64_t ops = 0;
        for (const ClientTally &tally : tallies)
            ops += tally.ops[i];
        window.ops += ops;
        window.slicePerSecond.push_back(
            static_cast<double>(ops)
            / (static_cast<double>(stamps[i + 1] - stamps[i]) * 1e-9));
    }
    for (const ClientTally &tally : tallies) {
        window.breaches += tally.breaches;
        window.mismatches += tally.mismatches;
        window.timed += tally.seen;
        const std::size_t n = std::min<std::uint64_t>(tally.seen,
                                                      kReservoir);
        for (std::size_t j = 0; j < n; ++j)
            window.lookupUs.push_back(tally.kept[j] * 1e-3);
    }
    return window;
}

void
checkWindow(const Window &window, Report &report)
{
    report.check(window.ops > 0, "no lookup completed");
    report.check(window.mismatches == 0,
                 std::to_string(window.mismatches)
                     + " lookups answered differently than in the "
                       "untimed pass");
    std::printf("lookups: %llu in %.3f s, %llu timed round trips, %llu "
                "kept\nlookups/s per slice:",
                static_cast<unsigned long long>(window.ops),
                window.seconds,
                static_cast<unsigned long long>(window.timed),
                static_cast<unsigned long long>(window.lookupUs.size()));
    for (double rate : window.slicePerSecond)
        std::printf(" %.0f", rate);
    std::printf("\n");
}

/** Failed operations: lookups answered by the budget fallback, frames
 *  the daemon could not decode, and refused sessions. */
std::uint64_t
failedOps(std::uint64_t breaches, const Metrics &metrics)
{
    return breaches + metrics.wireErrors.value()
        + metrics.admissionRejects.value();
}

double
warmupSec(const RunConfig &config)
{
    return config.smoke ? kWarmupSec / 5 : kWarmupSec;
}

Report
runUntraced(const ServingSpec &spec, const RunConfig &config)
{
    Report report;
    std::vector<double> setupSec;
    std::uint64_t start = nowNanos();
    auto rig = setUp(spec, config, nullptr, report);
    setupSec.push_back(secondsSince(start));
    conformance(*rig, config, report);
    const Window window = measure(*rig, warmupSec(config), config.seconds);
    tearDown(*rig, report);
    checkWindow(window, report);
    report.attempted = window.ops;
    report.failed = failedOps(window.breaches, rig->server().metrics());
    rig.reset();
    // Read before the extra set-ups: memory the allocator kept from
    // earlier daemons would count against later ones.
    const double peakMib = peakRssMib();

    while (setupSec.size() < kSetups) {
        start = nowNanos();
        rig = setUp(spec, config, nullptr, report);
        setupSec.push_back(secondsSince(start));
        tearDown(*rig, report);
        rig.reset();
    }
    std::printf("setups: %zu, median %.4f s\n", setupSec.size(),
                medianOf(setupSec));

    report.add("setup_s", medianOf(setupSec), "s");
    report.add("throughput_per_s", window.perSecond(), "1/s");
    report.add("peak_rss_mib", peakMib, "MiB");
    return report;
}

Report
runTraced(const ServingSpec &spec, const RunConfig &config)
{
    Report report;
    obs::TraceRecorder::Config traceConfig;
    traceConfig.synchronized = true;  // serve() runs on many threads.
    obs::TraceRecorder recorder(traceConfig);
    SpanLog spans;

    // The reference daemon, started the untraced way.
    std::vector<std::vector<AnswerKey>> reference;
    {
        auto ref = setUp(spec, config, nullptr, report);
        conformance(*ref, config, report);
        reference = ref->traffic.expected;
        tearDown(*ref, report);
    }

    auto rig = spans.time("serving.setup", [&] {
        return setUp(spec, config, &spans, report);
    });
    conformance(*rig, config, report);
    report.check(rig->traffic.expected == reference,
                 "instrumented bootstrap answers differently");

    // Half the window untraced, half with the daemon's own per-request
    // spans recorded: the throughput ratio prices the tracing.
    const double half = config.seconds / 2;
    const Window plain = spans.time("serving.lookups", [&] {
        return measure(*rig, warmupSec(config), half);
    });
    rig->server().setTrace(&recorder);
    const Window traced = spans.time("serving.lookups_traced", [&] {
        return measure(*rig, 0.0, half);
    });
    rig->server().setTrace(nullptr);
    tearDown(*rig, report);
    checkWindow(plain, report);
    checkWindow(traced, report);
    report.attempted = plain.ops + traced.ops;
    report.failed = failedOps(plain.breaches + traced.breaches,
                              rig->server().metrics());

    ServingLayers layers;
    spans.time("probe.serving", [&] {
        const Traffic &traffic = rig->traffic;
        for (std::size_t k = 0; k < traffic.kinds.size(); ++k)
            probeServing(rig->server(), traffic.kinds[k],
                         traffic.fallbacks[k],
                         rig->bootstrap->memberFor(traffic.kinds[k])
                             .controller->servingModel(),
                         traffic.samples[k], socketPath(config), layers,
                         report);
    });
    layers.rssPerSessionKib = {rig->rssPerSessionKib};
    layers.addCounters(rig->server().metrics());
    addServingLayerMetrics(layers, plain.lookupUs, report);
    report.add("trace.overhead_pct",
               100.0 * (plain.perSecond() / traced.perSecond() - 1.0),
               "%");

    // The run and learning layers, on the daemon's bootstrap fleet
    // (its models are no longer served from here on).
    FleetStack &fleet = *rig->bootstrap->stack;
    const FleetRun run = runFleet(fleet, &spans);
    addFleetRunMetrics(fleet, run, spans, report);
    replayLearning(fleet, spans, report);
    writeTraceFiles(config, spans, recorder);
    return report;
}

} // namespace

void
ServingLayers::addCounters(const Metrics &metrics)
{
    cacheHits += metrics.cacheHits.value();
    unknowns += metrics.unknowns.value();
    budgetBreaches += metrics.budgetBreaches.value();
    wireErrors += metrics.wireErrors.value();
    sessionsLeaked += metrics.sessionsOpened.value()
        - metrics.sessionsClosed.value();
}

std::uint64_t
openSessions(const ServingServer &server)
{
    const Metrics &m = server.metrics();
    return m.sessionsOpened.value() - m.sessionsClosed.value();
}

bool
waitForCloses(const ServingServer &server, std::uint64_t stillOpen)
{
    const std::uint64_t start = nowNanos();
    for (;;) {
        if (openSessions(server) <= stillOpen)
            return true;
        if (secondsSince(start) > 10.0)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void
probeServing(ServingServer &server, ServiceKind kind,
             const ResourceAllocation &fallback,
             const DecisionModel &model,
             const std::vector<MetricSample> &samples,
             const std::string &socketPath, ServingLayers &layers,
             Report &report)
{
    // Direct round trips; the answers are the reference.
    std::vector<AnswerKey> direct;
    {
        ServingClient client(server);
        report.check(client.hello(kind, fallback, "probe"),
                     "probe session refused");
        for (int r = 0; r < kProbeRounds; ++r) {
            for (const MetricSample &sample : samples) {
                const std::uint64_t start = nowNanos();
                const AnswerMsg answer = client.decide(sample.values);
                layers.directUs.push_back(secondsSince(start) * 1e6);
                if (r == 0)
                    direct.push_back(keyOf(answer));
            }
        }
        client.bye();
    }

    // The same samples over the socket front-end.
    {
        SocketServer socket(server, socketPath);
        if (!socket.start())
            fatal("cannot listen on ", socketPath);
        SocketClient connection(socketPath);
        if (!connection.connected())
            fatal("cannot connect to ", socketPath);
        ServingClient client(connection);
        report.check(client.hello(kind, fallback, "probe"),
                     "probe socket session refused");
        std::uint64_t mismatches = 0;
        for (int r = 0; r < kProbeRounds; ++r) {
            for (std::size_t i = 0; i < samples.size(); ++i) {
                const std::uint64_t start = nowNanos();
                const AnswerMsg answer = client.decide(samples[i].values);
                layers.socketUs.push_back(secondsSince(start) * 1e6);
                if (r == 0 && !(keyOf(answer) == direct[i]))
                    ++mismatches;
            }
        }
        client.bye();
        connection.close();
        report.check(mismatches == 0,
                     "probe socket answers differ from direct answers");
        report.check(waitForCloses(server),
                     "probe socket session left open");
        socket.stop();
    }

    // Each stage on its own: encode, serve, decode, classify, lookup.
    // Stages far below the clock's resolution are timed in batches.
    {
        ServingClient client(server);
        report.check(client.hello(kind, fallback, "probe"),
                     "probe session refused");
        (void)client.decide(samples.front().values);
        const std::uint32_t session = client.sessionId();
        const RepositorySnapshot snapshot =
            server.repository().snapshot(kind);
        WireFrame request, reply;
        std::vector<double> scratch;
        std::uint32_t seq = 1u << 20;
        std::uint64_t sink = 0;
        const auto perCall = [](std::uint64_t start) {
            return static_cast<double>(nowNanos() - start) / kProbeBatch;
        };
        for (int r = 0; r < kProbeRounds; ++r) {
            for (const MetricSample &sample : samples) {
                std::uint64_t start = nowNanos();
                for (int b = 0; b < kProbeBatch; ++b)
                    encodeSampleInto(request, session, seq++,
                                     sample.values);
                layers.encodeNs.push_back(perCall(start));

                start = nowNanos();
                server.serve(request, start, reply);
                layers.serveNs.push_back(
                    static_cast<double>(nowNanos() - start));

                start = nowNanos();
                for (int b = 0; b < kProbeBatch; ++b)
                    if (const auto answer = decodeAnswer(reply))
                        sink += answer->seq;
                layers.decodeNs.push_back(perCall(start));

                ClassifierEngine::Outcome outcome;
                start = nowNanos();
                for (int b = 0; b < kProbeBatch; ++b) {
                    outcome = classifySample(model, sample.values,
                                             scratch);
                    sink += static_cast<std::uint64_t>(outcome.classId);
                }
                layers.classifyNs.push_back(perCall(start));

                start = nowNanos();
                for (int b = 0; b < kProbeBatch; ++b)
                    if (snapshot.find(RepositoryKey{outcome.classId, 0}))
                        ++sink;
                layers.findNs.push_back(perCall(start));
            }
        }
        client.bye();
        gSink = gSink + sink;
    }

    // Resident memory an open session costs.
    {
        const double before = currentRssKib();
        std::vector<ServingClient> clients;
        clients.reserve(kProbeSessions);
        for (int i = 0; i < kProbeSessions; ++i) {
            clients.emplace_back(server);
            report.check(clients.back().hello(kind, fallback, "probe"),
                         "probe session refused");
            (void)clients.back().decide(
                samples[static_cast<std::size_t>(i) % samples.size()]
                    .values);
        }
        layers.rssPerSessionKib.push_back((currentRssKib() - before)
                                          / kProbeSessions);
        for (ServingClient &client : clients)
            client.bye();
    }
}

void
addServingLayerMetrics(const ServingLayers &layers,
                       const std::vector<double> &lookupUs,
                       Report &report)
{
    const double serveP50 = medianOf(layers.serveNs);
    report.add("serving.wire.encode_sample_ns", medianOf(layers.encodeNs),
               "ns");
    report.add("serving.server.serve_ns.p50", serveP50, "ns");
    report.add("serving.server.serve_ns.p99",
               quantileOf(layers.serveNs, 0.99), "ns");
    report.add("serving.wire.decode_answer_ns", medianOf(layers.decodeNs),
               "ns");
    report.add("serving.decision.classify_ns",
               medianOf(layers.classifyNs), "ns");
    report.add("core.snapshot.find_ns", medianOf(layers.findNs), "ns");
    report.add("serving.socket.transport_us.p50",
               medianOf(layers.socketUs) - serveP50 * 1e-3, "us");
    report.add("serving.lookup_p50_us", medianOf(lookupUs), "us");
    report.add("serving.lookup_p99_us", quantileOf(lookupUs, 0.99), "us");
    report.add("serving.lookup_p999_us", quantileOf(lookupUs, 0.999),
               "us");
    report.add("serving.lookup_samples",
               static_cast<double>(lookupUs.size()), "count");
    report.add("serving.cache_hits", static_cast<double>(layers.cacheHits),
               "count");
    report.add("serving.unknowns", static_cast<double>(layers.unknowns),
               "count");
    report.add("serving.budget_breaches",
               static_cast<double>(layers.budgetBreaches), "count");
    report.add("serving.wire_errors",
               static_cast<double>(layers.wireErrors), "count");
    report.add("serving.sessions_leaked",
               static_cast<double>(layers.sessionsLeaked), "count");
    report.add("serving.rss_per_session_kib",
               medianOf(layers.rssPerSessionKib), "KiB");
}

bool
isServingWorkload(const std::string &name)
{
    for (const ServingSpec &spec : kServing)
        if (name == spec.name)
            return true;
    return false;
}

Report
runServingWorkload(const RunConfig &config)
{
    const ServingSpec &spec = specFor(config.workload);
    return config.trace ? runTraced(spec, config)
                        : runUntraced(spec, config);
}

} // namespace perfbench
