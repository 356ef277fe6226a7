/**
 * @file
 * dejavud — the standalone DejaVu allocation daemon (docs/SERVING.md).
 *
 * Serves the signature -> classify -> repository-lookup hot path over
 * a unix-domain socket: clients Hello with their service kind, stream
 * monitor samples and receive allocation Answers within a configurable
 * latency budget (breaches answer full capacity and are counted, never
 * blocked on).
 *
 * The daemon bootstraps by building and learning a small mixed fleet
 * (one member per service kind) — the demo/self-test configuration —
 * then serves either the repository that fleet learned or, with
 * `--repository <csv>`, a previously saved repository file (the
 * restart path: reload, never relearn). Models are always the learned
 * per-kind classifiers; the repository contents are swappable.
 *
 * Flags:
 *   --listen <path>      serve on a unix socket until stdin sees EOF
 *   --repository <csv>   serve this saved repository instead of the
 *                        freshly learned one
 *   --save <csv>         persist the served repository and exit paths
 *   --budget-us <n>      per-lookup latency budget in microseconds
 *                        (default 250; 0 = always breach, i.e. every
 *                        answer is the fallback — a drill mode)
 *   --max-sessions <n>   admission-gate capacity (default 65536)
 *   --seed <n>           bootstrap fleet seed (default 42)
 *   (the three numeric flags take plain decimal digits; a sign, a
 *   stray character or an out-of-range value is fatal before the
 *   bootstrap learns)
 *   --selftest           serve one in-process client per kind and
 *                        verify the answers; exit nonzero on failure
 *   --report             print the metrics registry on exit as sorted
 *                        `name value` lines (the runbook's
 *                        `symptom -> counter` table reads these
 *                        names; latency quantiles appear as
 *                        `_p50_lo_ns`/`_p50_ns` bucket bounds —
 *                        pretty-print with tools/dejavu_top)
 *   --metrics <path>     write the registry in Prometheus text
 *                        exposition format on exit (scrape the file,
 *                        or point a node_exporter textfile collector
 *                        at it — docs/OBSERVABILITY.md)
 */

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/socket.hh"
#include "sim/cluster.hh"

using namespace dejavu;
using namespace dejavu::serving;

namespace {

/** @p text as a decimal count in [0, @p max]: digits only (no sign,
 *  no whitespace), the whole string, no overflow. fatal() naming
 *  @p flag otherwise. */
std::uint64_t
parseCount(const char *flag, const char *text, std::uint64_t max)
{
    const char *end = text + std::strlen(text);
    std::uint64_t value = 0;
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end || value > max)
        fatal(flag, " needs a whole number in [0, ", max, "], got '",
              text, "'");
    return value;
}

/** One in-process round of traffic per kind; true when every client
 *  connected and every sample got a well-formed answer. */
bool
selftest(ServingBootstrap &bootstrap)
{
    ServingServer &server = *bootstrap.server;
    bool ok = true;
    constexpr int kSamples = 32;
    for (auto &member : bootstrap.stack->members) {
        const ServiceKind kind = member->service->kind();
        ServingClient client(server);
        if (!client.hello(kind, member->cluster->maxAllocation(),
                          "selftest")) {
            std::cout << "  " << serviceKindName(kind)
                      << ": hello REJECTED\n";
            ok = false;
            continue;
        }
        int hits = 0;
        int unknowns = 0;
        const auto samples = bootstrap.collectSamples(kind, kSamples);
        for (const MetricSample &sample : samples) {
            const AnswerMsg answer = client.decide(sample.values);
            if (answer.kind == 0)
                ++hits;
            else
                ++unknowns;
        }
        client.bye();
        std::cout << "  " << serviceKindName(kind) << ": " << hits
                  << " cache hits, " << unknowns
                  << " unknown-workload fallbacks over " << kSamples
                  << " samples\n";
        // A learned kind classifying its own reuse-window traffic
        // must mostly hit; all-unknown means the models and the
        // repository went out of sync.
        ok = ok && hits > 0;
    }
    return ok && server.metrics().wireErrors.value() == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Info);

    std::string listenPath;
    std::string repositoryPath;
    std::string savePath;
    std::uint64_t budgetUs = 250;
    int maxSessions = 65536;
    std::uint64_t seed = 42;
    bool runSelftest = false;
    bool report = false;
    std::string metricsPath;
    for (int i = 1; i < argc; ++i) {
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal(argv[i], " needs a value");
            return argv[++i];
        };
        const auto count = [&](std::uint64_t max) {
            const char *flag = argv[i];
            return parseCount(flag, value(), max);
        };
        if (std::strcmp(argv[i], "--listen") == 0)
            listenPath = value();
        else if (std::strcmp(argv[i], "--repository") == 0)
            repositoryPath = value();
        else if (std::strcmp(argv[i], "--save") == 0)
            savePath = value();
        else if (std::strcmp(argv[i], "--budget-us") == 0)
            // Bounded so the nanosecond budget cannot overflow.
            budgetUs = count(UINT64_MAX / 1000);
        else if (std::strcmp(argv[i], "--max-sessions") == 0)
            maxSessions = static_cast<int>(count(INT_MAX));
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = count(UINT64_MAX);
        else if (std::strcmp(argv[i], "--selftest") == 0)
            runSelftest = true;
        else if (std::strcmp(argv[i], "--report") == 0)
            report = true;
        else if (std::strcmp(argv[i], "--metrics") == 0)
            metricsPath = value();
        else
            fatal("unknown argument: ", argv[i],
                  " (see the flag list in tools/dejavud.cc or "
                  "docs/SERVING.md)");
    }

    BootstrapOptions options;
    options.seed = seed;
    options.budgetNanos = budgetUs * 1000;
    options.maxSessions = maxSessions;
    options.learnThreads = std::max(
        1u, std::min(8u, std::thread::hardware_concurrency()));

    inform("dejavud: learning bootstrap fleet (seed ", seed, ", ",
         options.learnThreads, " threads)");
    auto bootstrap = makeServingBootstrap(options);

    // --repository swaps the served contents for a saved file (the
    // operator restart/reload path); the learned models stay.
    if (!repositoryPath.empty()) {
        std::ifstream in(repositoryPath);
        if (!in)
            fatal("cannot read repository ", repositoryPath);
        bootstrap->serveSaved(in);
    }
    ServingServer &server = *bootstrap->server;
    const SharedRepository &repo = server.repository();
    inform("dejavud: serving ", repo.entries(), " repository entries, "
         "budget ", budgetUs, " us");

    if (!savePath.empty()) {
        std::ofstream out(savePath);
        if (!out)
            fatal("cannot write repository to ", savePath);
        repo.save(out);
        out.close();
        if (!out)
            fatal("cannot write repository to ", savePath);
        inform("dejavud: repository saved to ", savePath);
    }

    int exitCode = 0;
    if (runSelftest) {
        std::cout << "dejavud selftest:\n";
        const bool ok = selftest(*bootstrap);
        std::cout << "selftest: " << (ok ? "PASS" : "FAIL") << "\n";
        exitCode = ok ? 0 : 1;
    }

    if (!listenPath.empty() && exitCode == 0) {
        SocketServer socket(server, listenPath);
        if (!socket.start())
            return 1;
        inform("dejavud: listening on ", listenPath,
             " — EOF on stdin shuts down");
        // Block until the controlling pipe closes (condvar-free here:
        // the read itself is the wait).
        while (std::cin.get() != std::char_traits<char>::eof()) {
        }
        inform("dejavud: shutting down");
        socket.stop();
    }

    if (report)
        std::cout << server.metrics().toString();
    if (!metricsPath.empty()) {
        std::ofstream out(metricsPath);
        if (!out)
            fatal("cannot write metrics to ", metricsPath);
        server.metrics().registry.writePrometheus(out);
        out.close();
        if (!out)
            fatal("cannot write metrics to ", metricsPath);
        inform("dejavud: Prometheus metrics written to ",
               metricsPath);
    }
    return exitCode;
}
