/**
 * @file
 * Fleet deployment (the paper's Figure 2): one DejaVu installation
 * hosts several services whose proxies all feed the profiling pool —
 * the paper's "one or a few machines". Each service has its own
 * trace, cluster and controller; all of them interleave on one shared
 * event queue, and concurrent adaptation requests queue for a free
 * profiling host (§3.3), with the queueing delay charged to
 * adaptation time.
 *
 * The fleet here is heterogeneous — Cassandra-style key-value stores
 * (60 ms SLO, 10 s profiling slots), SPECweb front-ends (QoS >= 95%,
 * 15 s slots) and three-tier RUBiS (150 ms SLO, 20 s slots) — and the
 * same fleet is run twice over:
 *
 *  1. under each §3.3 slot-scheduling policy (single host) to show
 *     how the contention *policy* moves the fleet-wide adaptation
 *     tails: shortest-job-first trims the median queue delay,
 *     SLO-debt-first steers slots toward currently violating
 *     services, and the adaptive policy switches between them on
 *     observed queue depth and outstanding debt;
 *  2. under a growing host pool (M = 1, 2, 4) to show the *capacity*
 *     axis: the knee where more profiling machines stop paying;
 *  3. with the per-controller repositories replaced by one shared
 *     cross-service repository (per-kind namespaces) to show the
 *     *reuse* axis: later same-kind members reuse allocations their
 *     peers already tuned, lifting the fleet-wide hit rate and
 *     skipping tuner runs;
 *  4. with the shared repository, synchronized vs jittered change
 *     arrival: tuner experiments are pool work, same-class signature
 *     collections of one hourly burst coalesce into a single slot
 *     whose result fans out to every subscriber, and jitter spreads
 *     the burst — the levers that shrink slot demand itself.
 */

#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "experiments/scenario.hh"

using namespace dejavu;

namespace {

constexpr int kServices = 6;

} // namespace

int
main()
{
    setLogLevel(LogLevel::Warn);

    ScenarioOptions options;
    options.seed = 42;
    options.traceName = "messenger";
    options.days = 3;

    std::printf("mixed fleet of %d services "
                "(2x KeyValue + 2x SPECweb + 2x RUBiS)\n\n", kServices);
    std::printf("== slot policies on a single profiling host ==\n\n");

    for (const auto &policyName : slotPolicyNames()) {
        auto stack = makeMixedFleet(kServices, options,
                                    slotPolicyFromName(policyName));

        // Learning phase for every hosted service (offline, day 1).
        stack->learnAll();

        // Reuse phase: everything event-driven on the shared queue.
        const auto results = stack->experiment->run();
        const auto summary = stack->experiment->summary();
        const auto &fleet = stack->experiment->fleet();

        std::printf("--- slot policy: %s ---\n", policyName.c_str());
        std::printf("%-8s %6s %12s %14s %14s %14s %14s\n", "service",
                    "slot_s", "savings_%", "slo_viol_%",
                    "adaptations", "mean_adapt_s", "max_queue_s");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &sr = results[i];
            std::printf("%-8s %6.0f %12.1f %14.2f %14d %14.1f "
                        "%14.1f\n",
                        sr.name.c_str(),
                        toSeconds(stack->members[i]->profilingSlot),
                        sr.result.savingsPercent,
                        100.0 * sr.result.sloViolationFraction,
                        sr.adaptations, sr.result.adaptationSec.mean(),
                        toSeconds(sr.maxQueueDelay));
        }
        std::printf("fleet: %llu slots granted, queue delay "
                    "p50/p95/max = %.1f/%.1f/%.1f s, total adaptation "
                    "p50/p95/max = %.1f/%.1f/%.1f s\n\n",
                    static_cast<unsigned long long>(
                        fleet.slotsGranted()),
                    summary.queueDelayP50Sec, summary.queueDelayP95Sec,
                    summary.queueDelayMaxSec, summary.adaptationP50Sec,
                    summary.adaptationP95Sec, summary.adaptationMaxSec);
    }

    std::printf("== growing the profiling pool (adaptive policy) ==\n\n");
    std::printf("%6s %14s %16s %16s\n", "hosts", "slots",
                "queue_p95_s", "adapt_p95_s");
    for (int hosts : {1, 2, 4}) {
        auto stack = makeMixedFleet(kServices, options,
                                    SlotPolicy::Adaptive, hosts);
        stack->learnAll();
        stack->experiment->run();
        const auto summary = stack->experiment->summary();
        std::printf("%6d %14llu %16.1f %16.1f\n", hosts,
                    static_cast<unsigned long long>(
                        stack->experiment->fleet().slotsGranted()),
                    summary.queueDelayP95Sec,
                    summary.adaptationP95Sec);
    }
    std::printf("\n== sharing the repository across the fleet ==\n\n");
    std::printf("%9s %13s %13s %12s %8s\n", "sharing",
                "repo_lookups", "repo_hit_%", "cross_hits", "reused");
    std::unique_ptr<FleetStack> sharedStack;  // kept for the CSV peek
    for (const RepositorySharing sharing :
         {RepositorySharing::Private, RepositorySharing::Shared}) {
        auto stack = makeMixedFleet(kServices, options,
                                    SlotPolicy::Adaptive, 1, sharing);
        stack->learnAll();
        stack->experiment->run();
        const auto summary = stack->experiment->summary();
        std::printf("%9s %13llu %13.2f %12llu %8llu\n",
                    summary.sharing.c_str(),
                    static_cast<unsigned long long>(
                        summary.repoLookups),
                    100.0 * summary.repoHitRate,
                    static_cast<unsigned long long>(
                        summary.repoCrossHits),
                    static_cast<unsigned long long>(
                        summary.repoReusedEntries));
        if (sharing == RepositorySharing::Shared)
            sharedStack = std::move(stack);
    }
    std::printf("\n(shared = live reuse: cross_hits are reads served "
                "from a peer's entry,\n reused counts distinct points "
                "— tuner runs the fleet skipped)\n\n");

    std::printf("== the profiling work queue "
                "(shared repository, adaptive policy) ==\n\n");
    std::printf("%-12s %10s %11s %9s %11s %13s\n", "arrival",
                "sig_slots", "tuner_slots", "coalesced",
                "queue_p95_s", "adapt_p95_s");
    for (const SimTime jitter : {SimTime{0}, minutes(45)}) {
        auto stack = makeMixedFleet(kServices, options,
                                    SlotPolicy::Adaptive, 1,
                                    RepositorySharing::Shared, jitter);
        stack->learnAll();
        stack->experiment->run();
        const auto summary = stack->experiment->summary();
        std::printf("%-12s %10llu %11llu %9llu %11.1f %13.1f\n",
                    jitter > 0 ? "jittered" : "synchronized",
                    static_cast<unsigned long long>(
                        summary.signatureSlots),
                    static_cast<unsigned long long>(
                        summary.tunerSlots),
                    static_cast<unsigned long long>(
                        summary.coalescedSignatures),
                    summary.queueDelayP95Sec,
                    summary.adaptationP95Sec);
    }
    std::printf("\n(coalesced = signature collections served by a "
                "same-class batch leader's\n slot — pool demand that "
                "no longer exists; jitter spreads each member's\n "
                "trace hours by a deterministic offset, draining the "
                "queue instead of\n batching it)\n\n");

    // The shared repository persists with the kind column; a peek at
    // the first few lines of what save() writes (reusing the shared
    // stack the comparison loop already learned and ran).
    {
        std::ostringstream csv;
        sharedStack->experiment->sharedRepository()->save(csv);
        std::printf("shared repository after the run "
                    "(kind-column CSV, first lines):\n");
        std::istringstream lines(csv.str());
        std::string line;
        for (int i = 0; i < 5 && std::getline(lines, line); ++i)
            std::printf("  %s\n", line.c_str());
        std::printf("  ...\n\n");
    }
    return 0;
}
