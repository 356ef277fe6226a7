/**
 * @file
 * bench_serving — the dejavud lookup hot path under load: lookups/s
 * and p50/p99/p99.9 latency at 100/1k/10k-session scale, single- and
 * multi-client, on both transports.
 *
 * Each cell builds the daemon exactly the way dejavud does (the
 * serving bootstrap: learned mixed fleet, repository round-tripped
 * through save()/load()) and drives it with pre-collected real
 * monitor samples:
 *
 *  - sessions: simulated services holding open serving sessions
 *    (100/1k/10k). The repository stays a few hundred entries per
 *    kind — workload *classes* are bounded per the paper; it is the
 *    session count that scales.
 *  - clients: driving threads, each owning sessions/clients sessions
 *    and round-robining lookups over them.
 *  - mode: "direct" calls ServingServer::serve() on the client
 *    thread (the embedded-library shape — encode, serve, decode, no
 *    handoff); "socket" round-trips every frame over dejavud's
 *    AF_UNIX front-end, one SocketClient per client thread, each
 *    connection served by its own worker thread (the deployed daemon
 *    shape; it prices the syscalls and the thread handoff). Its two
 *    cells send 100 sessions over 2 connections, so 2 clients and 2
 *    workers share 4 cores, as in perfbench's serve-socket workload,
 *    and over 8, so 16 threads do: both ends of a closed loop poll
 *    before they block, and this cell shows whether the poll still
 *    yields the cores the other threads need.
 *
 * Latency is measured client-side around the full
 * encode->serve->decode round trip (exact percentiles, every 8th op
 * sampled so the clock reads don't tax the throughput under test).
 * Budget breaches are the server's own count (250 us budget, the
 * dejavud default).
 *
 * Guarded claims (full run, exit nonzero on failure):
 *  - the 100-session single-client direct cell sustains >= 1M
 *    lookups/s;
 *  - every 10k-session direct cell keeps p99 within the 250 us
 *    budget.
 *
 * `--smoke` shrinks to 100/1k sessions with fewer ops for per-push
 * CI. `--json <path>` writes the machine digest (the format of
 * BENCH_serving.json, read by tools/check_bench_regression.py);
 * without it nothing is written.
 */

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/socket.hh"
#include "sim/cluster.hh"

#include <unistd.h>

using namespace dejavu;
using namespace dejavu::serving;

namespace {

constexpr std::uint64_t kBudgetNanos = 250'000;
constexpr int kSamplePoolPerKind = 64;

/** One measured cell. */
struct Cell
{
    int sessions = 0;
    int clients = 0;
    std::string mode;  ///< "direct" | "socket".
    std::uint64_t ops = 0;
    double wallSec = 0.0;
    double lookupsPerSec = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;
    std::uint64_t cacheHits = 0;
    std::uint64_t unknowns = 0;
    std::uint64_t budgetBreaches = 0;
    std::uint64_t rssBytes = 0;
};

/** The per-kind traffic and fallbacks the cells replay. */
struct TrafficPools
{
    std::vector<ServiceKind> kinds;
    std::vector<std::vector<MetricSample>> samples;  ///< Per kind.
    std::vector<ResourceAllocation> fallbacks;       ///< Per kind.
};

TrafficPools
collectTraffic(ServingBootstrap &bootstrap)
{
    TrafficPools pools;
    for (auto &member : bootstrap.stack->members) {
        const ServiceKind kind = member->service->kind();
        pools.kinds.push_back(kind);
        pools.samples.push_back(
            bootstrap.collectSamples(kind, kSamplePoolPerKind));
        pools.fallbacks.push_back(member->cluster->maxAllocation());
    }
    return pools;
}

/** Drive one cell: fresh repository, fresh server, @p clients
 *  threads round-robining @p opsTotal lookups over @p sessions
 *  sessions. */
Cell
runCell(ServingBootstrap &bootstrap, const TrafficPools &pools,
        const std::string &savedRepo, int sessions, int clients,
        const std::string &mode, std::uint64_t opsTotal)
{
    Cell cell;
    cell.sessions = sessions;
    cell.clients = clients;
    cell.mode = mode;

    // The daemon-side repository: the saved fleet repository
    // reloaded, widened to a bounded per-kind table (64 synthetic
    // classes x 4 buckets — class count does not scale with session
    // count, per the paper's bounded-classes model).
    std::istringstream in(savedRepo);
    SharedRepository repo = SharedRepository::load(in);
    for (ServiceKind kind : pools.kinds)
        widenRepository(repo, kind, /*firstClassId=*/1000,
                        /*classes=*/64, /*buckets=*/4,
                        ResourceAllocation{});

    ServingServer::Config config;
    config.budgetNanos = kBudgetNanos;
    config.maxSessions = sessions + 1;
    ServingServer server(repo, config);
    for (auto &member : bootstrap.stack->members)
        server.registerModel(member->service->kind(),
                             member->controller->servingModel());

    std::unique_ptr<SocketServer> socket;
    if (mode == "socket") {
        socket = std::make_unique<SocketServer>(
            server, (std::filesystem::temp_directory_path()
                     / ("bench_serving-" + std::to_string(::getpid())
                        + ".sock"))
                        .string());
        if (!socket->start())
            fatal("cannot listen on ", socket->path());
    }

    // Per-thread state lives across the setup/timed phases; thread
    // joins order the phases (one driving thread per session at any
    // instant — the session contract).
    struct ThreadState
    {
        /** This thread's connection (socket mode only). */
        std::unique_ptr<SocketClient> connection;
        std::vector<ServingClient> clients;
        std::vector<int> kindOf;  ///< Pool index per client.
        PercentileSampler latency;
        std::uint64_t startNanos = 0;
        std::uint64_t endNanos = 0;
    };
    std::vector<ThreadState> threads(
        static_cast<std::size_t>(clients));

    // Setup phase: open this thread's sessions and warm each one
    // (first decide pulls the repository snapshot into the session).
    auto setup = [&](int t) {
        ThreadState &state = threads[static_cast<std::size_t>(t)];
        if (socket) {
            state.connection =
                std::make_unique<SocketClient>(socket->path());
            DEJAVU_ASSERT(state.connection->connected(),
                          "bench connection refused");
        }
        for (int s = t; s < sessions; s += clients) {
            const int kind = s % static_cast<int>(pools.kinds.size());
            state.clients.push_back(
                socket ? ServingClient(*state.connection)
                       : ServingClient(server));
            state.kindOf.push_back(kind);
            ServingClient &client = state.clients.back();
            const bool up = client.hello(
                pools.kinds[static_cast<std::size_t>(kind)],
                pools.fallbacks[static_cast<std::size_t>(kind)],
                "bench");
            DEJAVU_ASSERT(up, "bench session rejected");
            (void)client.decide(
                pools.samples[static_cast<std::size_t>(kind)]
                    .front().values);
        }
    };
    // Timed phase: round-robin this thread's sessions, each lookup
    // cycling its kind's sample pool. Latency samples every 8th op:
    // at ~1M lookups/s the two clock reads plus the sampler push are
    // a measurable tax on the throughput being measured, and 1-in-8
    // still gives tens of thousands of exact percentile points per
    // cell.
    auto run = [&](int t, std::uint64_t ops) {
        ThreadState &state = threads[static_cast<std::size_t>(t)];
        const std::size_t mine = state.clients.size();
        state.startNanos = monotonicNanos();
        for (std::uint64_t op = 0; op < ops; ++op) {
            const std::size_t s = op % mine;
            const auto &pool = pools.samples[
                static_cast<std::size_t>(state.kindOf[s])];
            const auto &values = pool[op % pool.size()].values;
            if ((op & 7) == 0) {
                const std::uint64_t t0 = monotonicNanos();
                (void)state.clients[s].decide(values);
                state.latency.add(
                    static_cast<double>(monotonicNanos() - t0));
            } else {
                (void)state.clients[s].decide(values);
            }
        }
        state.endNanos = monotonicNanos();
    };

    {
        std::vector<std::thread> workers;
        for (int t = 0; t < clients; ++t)
            workers.emplace_back(setup, t);
        for (auto &worker : workers)
            worker.join();
    }
    const std::uint64_t opsPerThread =
        opsTotal / static_cast<std::uint64_t>(clients);
    // Untimed warm-up: spin each thread through a slice of real
    // lookups before the measured phase so frequency scaling, branch
    // predictors and the allocator's warm capacities have settled —
    // otherwise the first cells of a run measure the machine ramping
    // up, not the serve path.
    {
        const std::uint64_t warmOps =
            std::max<std::uint64_t>(1, opsPerThread / 8);
        std::vector<std::thread> workers;
        for (int t = 0; t < clients; ++t)
            workers.emplace_back(run, t, warmOps);
        for (auto &worker : workers)
            worker.join();
        for (ThreadState &state : threads)
            state.latency = PercentileSampler();
    }
    {
        std::vector<std::thread> workers;
        for (int t = 0; t < clients; ++t)
            workers.emplace_back(run, t, opsPerThread);
        for (auto &worker : workers)
            worker.join();
    }

    // Wall clock spans first start to last end across threads.
    std::uint64_t first = threads[0].startNanos;
    std::uint64_t last = threads[0].endNanos;
    PercentileSampler all;
    for (ThreadState &state : threads) {
        first = std::min(first, state.startNanos);
        last = std::max(last, state.endNanos);
        for (double v : state.latency.samples())
            all.add(v);
    }
    cell.ops = opsPerThread * static_cast<std::uint64_t>(clients);
    cell.wallSec = static_cast<double>(last - first) * 1e-9;
    cell.lookupsPerSec = cell.wallSec > 0.0
        ? static_cast<double>(cell.ops) / cell.wallSec : 0.0;
    cell.p50Ns = all.quantile(0.50);
    cell.p99Ns = all.quantile(0.99);
    cell.p999Ns = all.quantile(0.999);
    const Metrics &metrics = server.metrics();
    cell.cacheHits = metrics.cacheHits.value();
    cell.unknowns = metrics.unknowns.value();
    cell.budgetBreaches = metrics.budgetBreaches.value();
    cell.rssBytes = peakRssBytes();

    if (socket)
        socket->stop();
    return cell;
}

void
writeJson(const std::string &path, bool smoke,
          const std::vector<Cell> &cells)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON to ", path);
    out << "{\n  \"bench\": \"serving\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"budget_ns\": " << kBudgetNanos << ",\n"
        << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        out << "    {\"sessions\": " << c.sessions
            << ", \"clients\": " << c.clients
            << ", \"mode\": \"" << c.mode << "\""
            << ", \"ops\": " << c.ops
            << ", \"wall_s\": " << c.wallSec
            << ", \"lookups_per_s\": " << c.lookupsPerSec
            << ", \"p50_ns\": " << c.p50Ns
            << ", \"p99_ns\": " << c.p99Ns
            << ", \"p999_ns\": " << c.p999Ns
            << ", \"cache_hits\": " << c.cacheHits
            << ", \"unknowns\": " << c.unknowns
            << ", \"budget_breaches\": " << c.budgetBreaches
            << ", \"peak_rss_bytes\": " << c.rssBytes
            << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    if (!out)
        fatal("cannot write JSON to ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);

    bool smoke = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else
            fatal("unknown argument: ", argv[i],
                  " (use --smoke and/or --json <path>)");
    }

    printBanner(std::cout, std::string(smoke ? "[smoke] " : "")
                + "Serving hot path: dejavud lookups/s and latency "
                "tails (direct + socket transports)");

    BootstrapOptions options;
    options.budgetNanos = kBudgetNanos;
    options.learnThreads = std::max(
        1, std::min(8, static_cast<int>(
                           std::thread::hardware_concurrency())));
    auto bootstrap = makeServingBootstrap(options);
    const TrafficPools pools = collectTraffic(*bootstrap);
    std::ostringstream saved;
    bootstrap->stack->experiment->sharedRepository()->save(saved);
    const std::string savedRepo = saved.str();

    const std::vector<int> sessionScales =
        smoke ? std::vector<int>{100, 1000}
              : std::vector<int>{100, 1000, 10000};
    const std::uint64_t opsTotal = smoke ? 50'000 : 400'000;

    std::vector<Cell> cells;
    for (int sessions : sessionScales)
        for (int clients : {1, 4})
            cells.push_back(runCell(*bootstrap, pools, savedRepo,
                                    sessions, clients, "direct",
                                    opsTotal));
    // The same lookups paying the transport: 2 connections, as in
    // perfbench's serve-socket, and 8, whose 16 client and worker
    // threads outnumber the cores.
    for (int clients : {2, 8})
        cells.push_back(runCell(*bootstrap, pools, savedRepo, 100,
                                clients, "socket", opsTotal));

    Table table({"sessions", "clients", "mode", "ops",
                 "lookups_per_s", "p50_us", "p99_us", "p999_us",
                 "breaches", "peak_rss_mib"});
    for (const Cell &c : cells)
        table.addRow({std::to_string(c.sessions),
                      std::to_string(c.clients), c.mode,
                      std::to_string(c.ops),
                      Table::num(c.lookupsPerSec, 0),
                      Table::num(c.p50Ns / 1000.0, 2),
                      Table::num(c.p99Ns / 1000.0, 2),
                      Table::num(c.p999Ns / 1000.0, 2),
                      std::to_string(c.budgetBreaches),
                      Table::num(static_cast<double>(c.rssBytes)
                                 / (1024.0 * 1024.0), 0)});
    table.printText(std::cout);

    if (!jsonPath.empty()) {
        writeJson(jsonPath, smoke, cells);
        std::cout << "\nserving digest written to " << jsonPath << "\n";
    }

    if (smoke)
        return 0;

    // Full-run gates (machine-independent enough to commit to).
    bool throughputOk = false;
    bool budgetOk = true;
    for (const Cell &c : cells) {
        if (c.mode == "direct" && c.sessions == 100 && c.clients == 1)
            throughputOk = c.lookupsPerSec >= 1e6;
        if (c.mode == "direct" && c.sessions == 10000)
            budgetOk = budgetOk
                && c.p99Ns <= static_cast<double>(kBudgetNanos);
    }
    std::cout << "single-client direct >= 1M lookups/s: "
              << (throughputOk ? "YES" : "NO — BUG") << "\n"
              << "10k-session direct p99 within "
              << kBudgetNanos / 1000 << " us budget: "
              << (budgetOk ? "YES" : "NO — BUG") << "\n";
    return throughputOk && budgetOk ? 0 : 1;
}
