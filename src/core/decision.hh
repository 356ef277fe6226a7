/**
 * @file
 * The DejaVu decision kernel: the signature → classify → repository-
 * lookup hot path (§3.5/§3.6), carved out of DejaVuController so the
 * same code answers a workload change in the simulator and an
 * allocation lookup in the `dejavud` serving daemon.
 *
 * The kernel is deliberately dependency-free state-wise: it owns
 * nothing and mutates nothing it is handed except the caller's
 * scratch buffer. A DecisionModel is a *view* over one learned
 * controller's classify state (schema, standardizer, classifier,
 * centroids, novelty radii); classifySample() runs the PR-6
 * no-allocation classify path over it, and decideAllocation() turns
 * the classification into an allocation via a caller-supplied lookup
 * — a counting RepositoryHandle in the simulator, a lock-free
 * RepositorySnapshot in the daemon. Because both callers execute
 * byte-for-byte the same arithmetic over the same model, the
 * daemon-vs-sim conformance suite can demand bit-identical answers
 * (tests/test_serving.cc).
 *
 * The kernel sits in core/ so that the controller and the serving
 * layer above it both include it downward; its names stay in
 * dejavu::serving because they are the daemon's answer vocabulary.
 */

#ifndef DEJAVU_CORE_DECISION_HH
#define DEJAVU_CORE_DECISION_HH

#include <cmath>
#include <optional>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
#include "core/classifier_engine.hh"
#include "core/repository.hh"
#include "core/signature.hh"
#include "ml/dataset.hh"
#include "sim/allocation.hh"

namespace dejavu {
namespace serving {

/**
 * A non-owning view over one learned model's classify state. The
 * pointee objects (owned by a DejaVuController, or by the daemon's
 * bootstrap stack) must outlive every classifySample() call; the
 * view itself is a plain value, cheap to copy into per-kind
 * registries. All pointers are const: classification never mutates
 * the model, so one model may serve many sessions concurrently.
 */
struct DecisionModel
{
    const SignatureSchema *schema = nullptr;
    const Standardizer *standardizer = nullptr;
    const ClassifierEngine *classifier = nullptr;
    /** Learned per-class extent (novelty guard input). */
    const std::vector<double> *classRadius = nullptr;
    /** Row-major centroids, row = class id (PR-6 FlatMatrix). */
    const FlatMatrix *centroidRows = nullptr;
    double certaintyThreshold = 0.60;
    double noveltyRadiusSlack = 2.2;

    bool valid() const
    {
        return schema && standardizer && classifier && classRadius &&
               centroidRows;
    }
};

/**
 * What the hot path decided for one ingested sample — the wire-level
 * answer the daemon returns and the core of the controller Decision.
 */
struct ServingAnswer
{
    enum class Kind
    {
        CacheHit,        ///< Classified; cached allocation served.
        UnknownWorkload, ///< Low certainty / novel; full capacity.
        LostEntry,       ///< Known class, entry vanished (peer
                         ///< re-cluster race); full capacity.
    };

    Kind kind = Kind::CacheHit;
    int classId = -1;
    double certainty = 0.0;
    /** Interference bucket that served the hit; 0 on the baseline
     *  path and every fallback. */
    int bucketUsed = 0;
    ResourceAllocation allocation;
};

/**
 * Out-of-distribution guard shared by every classify caller:
 * decision trees stay confident far outside the training data, so
 * certainty is scaled down when @p tuple falls well outside the
 * predicted cluster's learned extent (§3.5; this is what fires on
 * HotMail's day-4 flash crowd).
 */
void applyNoveltyGuard(const DecisionModel &model,
                       const std::vector<double> &tuple,
                       ClassifierEngine::Outcome &outcome);

/**
 * The classify half of the hot path: extract the schema's feature
 * tuple from raw monitor metrics into @p scratch, standardize in
 * place, classify, and apply the novelty guard. No allocation when
 * @p scratch has warmed up to schema size (the PR-6 scratch path) —
 * the per-sample cost is the tree/NB walk plus one centroid-distance
 * scan.
 */
ClassifierEngine::Outcome classifySample(
    const DecisionModel &model,
    const std::vector<double> &metricValues,
    std::vector<double> &scratch);

/**
 * The lookup half of the hot path: turn a classification into an
 * allocation, replicating DejaVuController::onWorkloadChange's
 * repository walk exactly:
 *
 *  1. unknown workload → @p fullCapacity (§3.5's do-no-harm answer);
 *  2. while an interference episode is ongoing (@p currentBucket >
 *     0), try (class, bucket) first (§3.6 reuse);
 *  3. fall back to the baseline (class, 0) entry;
 *  4. a known class with no entry at all is a LostEntry — legitimate
 *     only when peers can clear shared entries concurrently
 *     (@p lostEntryTolerated); otherwise it is a fatal invariant
 *     violation.
 *
 * @p lookup is any callable (const RepositoryKey &) ->
 * std::optional<ResourceAllocation>: the simulator passes a counting
 * RepositoryHandle::lookup, the daemon a RepositorySnapshot::find.
 */
template <typename LookupFn>
ServingAnswer
decideAllocation(const ClassifierEngine::Outcome &outcome,
                 int currentBucket, LookupFn &&lookup,
                 const ResourceAllocation &fullCapacity,
                 bool lostEntryTolerated)
{
    ServingAnswer answer;
    answer.classId = outcome.classId;
    answer.certainty = outcome.certainty;
    if (!outcome.known) {
        answer.kind = ServingAnswer::Kind::UnknownWorkload;
        answer.allocation = fullCapacity;
        return answer;
    }
    std::optional<ResourceAllocation> cached;
    int bucketUsed = 0;
    if (currentBucket > 0) {
        cached = lookup(RepositoryKey{outcome.classId, currentBucket});
        if (cached)
            bucketUsed = currentBucket;
    }
    if (!cached)
        cached = lookup(RepositoryKey{outcome.classId, 0});
    if (!cached) {
        DEJAVU_ASSERT(lostEntryTolerated, "repository lost class ",
                      outcome.classId);
        answer.kind = ServingAnswer::Kind::LostEntry;
        answer.allocation = fullCapacity;
        return answer;
    }
    answer.kind = ServingAnswer::Kind::CacheHit;
    answer.bucketUsed = bucketUsed;
    answer.allocation = *cached;
    return answer;
}

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_CORE_DECISION_HH
