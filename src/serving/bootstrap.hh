/**
 * @file
 * Serving bootstrap: build a learned fleet and turn it into a running
 * dejavud stack — the one construction path shared by the `dejavud`
 * daemon's demo/self-test mode, bench_serving and the conformance
 * suite (tests/test_serving.cc), so all three serve the *same*
 * models over the *same* repository contents.
 *
 * The bootstrap builds a mixed fleet with exactly one member per
 * service kind (KeyValue, SPECweb, RUBiS) under a shared repository,
 * runs the learning phase, then round-trips the fleet repository
 * through save()/load() into a daemon-side copy — which is
 * deliberately the daemon *restart* story: dejavud never relearns on
 * restart, it reloads the persisted repository and re-registers the
 * kind models (docs/SERVING.md). One member per kind makes the
 * daemon's per-kind model registry exactly the member models, which
 * is what lets the conformance suite demand bit-identical
 * daemon-vs-sim answers.
 *
 * collectSamples() pre-collects real monitor samples (noise
 * included) from a member's reuse-window workloads. Collection
 * consumes the member's RNG, so conformance collects each stream
 * once and feeds the same samples to both sides.
 */

#ifndef DEJAVU_SERVING_BOOTSTRAP_HH
#define DEJAVU_SERVING_BOOTSTRAP_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "experiments/scenario.hh"
#include "serving/server.hh"

namespace dejavu {
namespace serving {

/** Knobs for makeServingBootstrap(). */
struct BootstrapOptions
{
    std::uint64_t seed = 42;
    /** Selects nothing: the repository has one lock, not stripes.
     *  Kept for callers written against it. */
    int shards = 1;
    /** Latency budget; defaults to disabled (tests and the daemon
     *  set their own). */
    std::uint64_t budgetNanos = ServingServer::kNoBudget;
    int maxSessions = 65536;
    /** Threads for the fleet learning phase (bit-identical results
     *  at any count — FleetStack::learnAll's contract). */
    int learnThreads = 1;
    /** Trace days to build (2 = learning day + one reuse day). */
    int days = 2;
};

/**
 * A running serving stack plus the learned fleet backing it. The
 * fleet must stay alive as long as the server runs: the registered
 * DecisionModels are views into its controllers.
 */
struct ServingBootstrap
{
    BootstrapOptions options;
    /** The learned fleet (owns controllers, hence the models). */
    std::unique_ptr<FleetStack> stack;
    /** Daemon-side repository: the fleet repository reloaded through
     *  save()/load(). */
    std::unique_ptr<SharedRepository> repo;
    std::unique_ptr<ServingServer> server;

    /** The member serving @p kind (fatal on an unserved kind). */
    FleetMember &memberFor(ServiceKind kind);

    /**
     * Serve the repository saved in @p saved: load it as the new
     * repo and rebuild server over it, with every member's model
     * registered. makeServingBootstrap serves the fleet's own
     * repository this way; `dejavud --repository` serves a file.
     */
    void serveSaved(std::istream &saved);

    /**
     * Collect @p count real signature samples for @p kind's member,
     * cycling its reuse-window trace hours. Consumes the member's
     * monitor RNG — collect once and reuse the stream.
     */
    std::vector<MetricSample> collectSamples(ServiceKind kind,
                                             int count);
};

/** Build, learn and wire the stack. See the file comment. */
std::unique_ptr<ServingBootstrap> makeServingBootstrap(
    const BootstrapOptions &options);

/**
 * Widen a repository with synthetic entries for scale benches: for
 * class ids [@p firstClassId, @p firstClassId + @p classes) and
 * buckets [0, @p buckets), store @p allocation under @p kind. The
 * ids lie beyond anything a classifier predicts, so answers are
 * unchanged — only the snapshot's binary-search depth grows, which
 * is exactly what a 10k-service repository exercises.
 */
void widenRepository(SharedRepository &repo, ServiceKind kind,
                     int firstClassId, int classes, int buckets,
                     const ResourceAllocation &allocation);

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_BOOTSTRAP_HH
