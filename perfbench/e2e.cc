/**
 * @file
 * dejavu_perfbench: one workload of the end-to-end benchmark per
 * process (perfbench/README.md).
 *
 *   dejavu_perfbench --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--smoke] [--out DIR]
 *                    [--update-golden]
 *
 * Workloads: fleet-mixed-shared, fleet-ycsb-faults (fleet.cc),
 * serve-direct, serve-socket (serving.cc). --trace 1 measures the
 * per-layer metrics instead of the end-to-end ones and writes
 * DIR/NAME.trace.json and DIR/NAME.layers.json. --smoke runs every
 * workload at about a tenth of its size. --update-golden rewrites a
 * fleet workload's seed-42 digest.
 *
 * Prints every metric with its unit, then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
 * a correctness check failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/logging.hh"
#include "harness.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "dejavu_perfbench: %s\nusage: dejavu_perfbench "
                 "--workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--out DIR] "
                 "[--update-golden]\n",
                 problem.c_str());
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig config;
    config.outDir = ".bench_build/out";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            config.workload = value();
        } else if (arg == "--seed") {
            config.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            config.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            config.trace = v == "1";
        } else if (arg == "--smoke") {
            config.smoke = true;
        } else if (arg == "--out") {
            config.outDir = value();
        } else if (arg == "--update-golden") {
            config.updateGolden = true;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!isFleetWorkload(config.workload)
        && !isServingWorkload(config.workload))
        usage("unknown workload '" + config.workload + "'");
    if (!(config.seconds > 0.0) || config.seconds > 120.0)
        usage("--seconds must be in (0, 120]");
    return config;
}

void
printResult(const Report &report)
{
    for (const Report::Metric &m : report.metrics)
        std::printf("  %-44s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &error : report.errors)
        std::printf("CHECK FAILED: %s\n", error.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Metric &m = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // The fleets warn thousands of times per run (infeasible tunings,
    // unknown workloads); what that costs depends on where stderr
    // goes, so it is kept out of the measurement.
    dejavu::setLogLevel(dejavu::LogLevel::Silent);
    const RunConfig config = parseArgs(argc, argv);
    std::filesystem::create_directories(config.outDir);

    std::printf("workload %s, seed %llu, %.3g s%s%s\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? ", traced" : "",
                config.smoke ? ", smoke" : "");
    if (!resetPeakRss())
        std::printf("no /proc/self/clear_refs: peak_rss_mib is the "
                    "process's maximum so far\n");
    Report report = isFleetWorkload(config.workload)
        ? runFleetWorkload(config)
        : runServingWorkload(config);
    for (const Report::Metric &m : report.metrics)
        report.check(std::isfinite(m.value),
                     "metric " + m.name + " is not finite");
    report.check(report.attempted > 0, "no operation attempted");
    printResult(report);
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
