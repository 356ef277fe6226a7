/**
 * @file
 * Serving-side observability: the dejavud hot-path counters, now
 * registered on the fleet-wide obs::MetricsRegistry.
 *
 * Every counter an operator is told to check in docs/SERVING.md's
 * runbook table lives here, under the `serving.` namespace of the
 * registry (PR 10 renamed the bare kv keys — `samples` became
 * `serving.samples` and so on). The hot path is unchanged: sessions
 * and transports hold references to registered handles and do one
 * relaxed atomic increment — no lock, no allocation, no name lookup
 * — so metrics cost a few nanoseconds per request and never perturb
 * the latency they measure. Quantiles come from the registry's
 * power-of-two obs::LatencyHistogram; quantileBoundsNanos() reports
 * the bucket's [lower, upper] range so operators see the estimate's
 * true width (the serving bench still reports *exact* percentiles
 * from its own samplers).
 *
 * The registry also gives the daemon its Prometheus surface:
 * `dejavud --metrics` serves registry.writePrometheus() and
 * `dejavud --report` prints registry.kv().
 */

#ifndef DEJAVU_SERVING_METRICS_HH
#define DEJAVU_SERVING_METRICS_HH

#include <string>

#include "obs/metrics.hh"

namespace dejavu {
namespace serving {

/**
 * The dejavud counter set. One instance per server; sessions and
 * transports all increment the same relaxed atomics. Field-by-field
 * meaning (and which symptom each one diagnoses) is tabulated in
 * docs/SERVING.md under the registry names.
 */
struct Metrics
{
    /** The backing registry (declared first: the handle references
     *  below bind into it during construction). */
    obs::MetricsRegistry registry;

    /** Samples ingested (one allocation answer each). */
    obs::Counter &samples = registry.counter("serving.samples");
    /** Answers served from the repository (ServingAnswer CacheHit). */
    obs::Counter &cacheHits = registry.counter("serving.cache_hits");
    /** Low-certainty / novel classifications → full capacity. */
    obs::Counter &unknowns = registry.counter("serving.unknowns");
    /** Known class, no entry (snapshot lag or peer clear) → full
     *  capacity. */
    obs::Counter &lostEntries =
        registry.counter("serving.lost_entries");
    /** Answers that blew the latency budget → full capacity. */
    obs::Counter &budgetBreaches =
        registry.counter("serving.budget_breaches");
    /** Session snapshot refreshes: a session saw the repository
     *  version move (a store or clear) and picked up its kind's
     *  shared table, which the repository collects once per kind
     *  and version, not once per refresh. */
    obs::Counter &snapshotRefreshes =
        registry.counter("serving.snapshot_refreshes");
    /** Interference-bucket updates received from proxies. */
    obs::Counter &bucketUpdates =
        registry.counter("serving.bucket_updates");
    obs::Counter &sessionsOpened =
        registry.counter("serving.sessions_opened");
    obs::Counter &sessionsClosed =
        registry.counter("serving.sessions_closed");
    /** Hellos refused by the admission gate. */
    obs::Counter &admissionRejects =
        registry.counter("serving.admission_rejects");
    /** Frames that failed to decode (length, type or field bounds). */
    obs::Counter &wireErrors = registry.counter("serving.wire_errors");
    /** Arrival-to-answer latency of every answered sample. */
    obs::LatencyHistogram &latency =
        registry.histogram("serving.latency");

    /** One-line-per-counter dump (the `kv` format the runbook quotes
     *  and `dejavud --report` prints), sorted by name. Includes the
     *  p50/p99 upper *and* lower bucket bounds. */
    std::string toString() const { return registry.kv(); }
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_METRICS_HH
