/**
 * @file
 * Shared plumbing of the end-to-end benchmark: the run configuration,
 * the metric report every workload fills, wall-clock and peak-RSS
 * readers, the span log the traced runs record, and the layer probes
 * both workload families use.
 *
 * Every workload reports the same metric set (BENCHMARK.json). The
 * untraced run measures the end-to-end metrics; the traced run
 * measures every per-layer metric on the workload's own learned
 * deployment. A layer that the workload's measured phase does not
 * exercise is measured by a probe after it: the fleet workloads serve
 * lookups from a sample of their members' models and repositories,
 * and the serving workloads run the daemon's bootstrap fleet.
 */

#ifndef DEJAVU_PERFBENCH_HARNESS_HH
#define DEJAVU_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "experiments/scenario.hh"
#include "obs/trace.hh"
#include "serving/server.hh"

namespace perfbench {

/** One invocation's arguments. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;   ///< Length of the measured phase.
    bool trace = false;      ///< Per-layer run instead of end-to-end.
    bool smoke = false;      ///< About 1/10 of every workload's size.
    bool updateGolden = false;
    std::string outDir;      ///< Trace files and the serving socket.
};

/** A workload's result: the correctness verdict, the operation counts
 *  and the metrics, in the order they were added. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a correctness check; a failed one makes the run
     *  incorrect and is printed with @p what. */
    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            errors.push_back(what);
        }
    }
};

/** @name Clocks and statistics @{ */
inline std::uint64_t
nowNanos()
{
    return dejavu::monotonicNanos();
}

inline double
secondsSince(std::uint64_t startNanos)
{
    return static_cast<double>(nowNanos() - startNanos) * 1e-9;
}

/** Exact quantile (linear interpolation); 0 for no values. */
double quantileOf(const std::vector<double> &values, double q);

inline double
medianOf(const std::vector<double> &values)
{
    return quantileOf(values, 0.5);
}

double meanOf(const std::vector<double> &values);
/** @} */

/** @name Memory
 *  Linux keeps the resident-set high-water mark (VmHWM) per process;
 *  writing "5" to /proc/self/clear_refs resets it to the current RSS,
 *  so one process can measure the peak of each phase separately.
 *  Without /proc the peak is getrusage's maximum so far, which never
 *  resets. @{ */
/** Reset the high-water mark; false when only "max so far" exists. */
bool resetPeakRss();
/** Peak RSS since the last reset, in MiB. */
double peakRssMib();
/** Current RSS in KiB (0 without /proc). */
double currentRssKib();
/** @} */

/**
 * Wall-time spans the traced runs record around calls into the
 * system. Each span's parent is the innermost span open on the main
 * thread when it began; spans timed on worker threads are added with
 * an explicit parent. A span's self time is its duration minus the
 * part of it that its children cover (overlapping children count
 * once).
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t begin;
        std::uint64_t end;
        int parent;  ///< Index of the parent span, -1 at the root.
        int lane;    ///< 0 = main thread, k = worker k.
    };

    /** Open a span on the main thread; returns its index. */
    int open(const char *name);
    /** Close the span @p index (the innermost open one). */
    void close(int index);
    /** Add a span timed elsewhere (a worker thread). */
    void add(const char *name, std::uint64_t begin, std::uint64_t end,
             int parent, int lane);

    /** Time @p fn as a span named @p name; returns fn's result. */
    template <typename Fn>
    auto time(const char *name, Fn &&fn)
    {
        struct Closer
        {
            SpanLog &log;
            int index;
            ~Closer() { log.close(index); }
        } closer{*this, open(name)};
        return fn();
    }

    /** Copy every span onto wall-time lanes of @p recorder. */
    void writeTo(dejavu::obs::TraceRecorder &recorder) const;

    /** Per span name: count, total and self milliseconds, as JSON. */
    std::string layersJson(const std::string &workload) const;

  private:
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** This process's AF_UNIX socket path in config.outDir (relative, so
 *  it stays within the socket address limit). */
std::string socketPath(const RunConfig &config);

/** Indices of the members the traced probes replay: every 19th of a
 *  fleet of 100 or more (19 is co-prime with the fleets' 3-kind and
 *  4-mix cycles, so every kind and mix is sampled), else every one. */
std::vector<std::size_t> sampledMembers(std::size_t members);

// --------------------------------------------------------------------
// Layer probes shared by both workload families (fleet.cc and
// serving.cc). Each adds its metrics to the report.
// --------------------------------------------------------------------

/** Run @p stack's learning phase the way FleetStack::learnAll does —
 *  member-local prepares across @p threads workers, then every
 *  member's repository half in member order — timing each call, and
 *  add the learning-layer metrics. */
void learnInstrumented(dejavu::FleetStack &stack, int threads,
                       SpanLog &spans, Report &report);

/** Replay the learning calls of the sampled members (signature
 *  collection, class identification, classifier training) one by one
 *  and add their per-call times. Consumes the members' profiler
 *  RNGs, so it runs after everything that is checked. */
void replayLearning(dejavu::FleetStack &stack, SpanLog &spans,
                    Report &report);

/** A finished fleet simulation: what it is checked and digested by. */
struct FleetRun
{
    double runSec = 0.0;            ///< Wall time of run().
    std::uint64_t events = 0;       ///< Event-queue events executed.
    dejavu::FleetExperiment::FleetSummary summary;
    double sloViolationPct = 0.0;   ///< Mean over members.
    double savingsPct = 0.0;        ///< Mean over members.
};

/** Simulate a learned @p stack (FleetExperiment::run), as a
 *  "fleet.run" span when @p spans is given. */
FleetRun runFleet(dejavu::FleetStack &stack, SpanLog *spans);

/** Add the run, profiling, repository and simulated-outcome metrics
 *  of @p run, replaying the run's two most frequent layer calls on
 *  the sampled members to attribute its wall time. */
void addFleetRunMetrics(dejavu::FleetStack &stack, const FleetRun &run,
                        SpanLog &spans, Report &report);

/** What probeServing() measured, over one or more probed servers,
 *  plus the servers' counters. */
struct ServingLayers
{
    std::vector<double> encodeNs;    ///< Per call, batch means.
    std::vector<double> serveNs;     ///< Per call.
    std::vector<double> decodeNs;    ///< Per call, batch means.
    std::vector<double> classifyNs;  ///< Per call, batch means.
    std::vector<double> findNs;      ///< Per call, batch means.
    std::vector<double> directUs;    ///< decide() round trips.
    std::vector<double> socketUs;    ///< decide() over AF_UNIX.
    std::vector<double> rssPerSessionKib;
    std::uint64_t cacheHits = 0;
    std::uint64_t unknowns = 0;
    std::uint64_t budgetBreaches = 0;
    std::uint64_t wireErrors = 0;
    std::uint64_t sessionsLeaked = 0;

    /** Fold in a finished server's counters. */
    void addCounters(const dejavu::serving::Metrics &metrics);
};

/** Sessions @p server has opened and not yet closed. */
std::uint64_t openSessions(const dejavu::serving::ServingServer &server);

/** Wait until no more than @p stillOpen sessions of @p server are open
 *  (socket Byes arrive asynchronously); false after 10 s. */
bool waitForCloses(const dejavu::serving::ServingServer &server,
                   std::uint64_t stillOpen = 0);

/**
 * Measure each serving stage of @p server for @p kind's sessions over
 * @p samples: encode, serve, decode, classify and snapshot lookup,
 * direct and socket round trips. Checks that socket answers equal
 * direct ones and that every session opened is closed. @p socketPath
 * names the AF_UNIX socket (relative to the working directory).
 */
void probeServing(dejavu::serving::ServingServer &server,
                  dejavu::ServiceKind kind,
                  const dejavu::ResourceAllocation &fallback,
                  const dejavu::serving::DecisionModel &model,
                  const std::vector<dejavu::MetricSample> &samples,
                  const std::string &socketPath, ServingLayers &layers,
                  Report &report);

/** Add the serving-stage metrics. @p lookupUs are the round trips the
 *  lookup tail comes from. */
void addServingLayerMetrics(const ServingLayers &layers,
                            const std::vector<double> &lookupUs,
                            Report &report);

/** @name Workload entry points @{ */
bool isFleetWorkload(const std::string &name);
bool isServingWorkload(const std::string &name);
Report runFleetWorkload(const RunConfig &config);
Report runServingWorkload(const RunConfig &config);
/** @} */

/** Write the traced run's Chrome trace and layer table into
 *  config.outDir. */
void writeTraceFiles(const RunConfig &config, const SpanLog &spans,
                     dejavu::obs::TraceRecorder &recorder);

} // namespace perfbench

#endif // DEJAVU_PERFBENCH_HARNESS_HH
