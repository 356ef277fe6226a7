/**
 * @file
 * The DejaVu runtime controller: ties the proxy/profiler, clustering,
 * classification, repository, tuner and interference estimator into
 * the two-phase operation of Figure 3 — a learning phase (profile,
 * cluster, tune once per class) followed by the reuse phase (profile
 * ~10 s, classify, redeploy the cached allocation; fall back to full
 * capacity on unknown workloads; adjust for interference using SLO
 * feedback).
 */

#ifndef DEJAVU_CORE_CONTROLLER_HH
#define DEJAVU_CORE_CONTROLLER_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.hh"
#include "core/classifier_engine.hh"
#include "core/clustering_engine.hh"
#include "core/decision.hh"
#include "core/interference_estimator.hh"
#include "core/shared_repository.hh"
#include "core/signature.hh"
#include "core/tuner.hh"
#include "counters/profiler.hh"
#include "services/service.hh"
#include "services/slo.hh"

namespace dejavu {

/**
 * The DejaVu framework controller for one service.
 */
class DejaVuController
{
  public:
    /** Which member of a workload class the Tuner replays (§3.4). */
    enum class RepresentativeRule
    {
        /** The instance closest to the centroid (the paper's
         *  default wording). Cheaper on average, but members above
         *  the medoid can be under-provisioned. */
        Medoid,
        /** The most demanding member: the cached allocation then
         *  satisfies the SLO for the entire class ("sufficient, but
         *  not wasteful" for every member). */
        MostDemanding,
    };

    struct Config
    {
        Slo slo = Slo::latency(60.0);
        /** Candidate allocations for the Tuner's linear search. */
        std::vector<ResourceAllocation> searchSpace;
        /** Class-representative choice for tuning. */
        RepresentativeRule representativeRule =
            RepresentativeRule::MostDemanding;
        /** Profiling trials per learning workload (Fig. 4 used 5). */
        int trialsPerWorkload = 3;
        /** Certainty threshold for cache hits (§3.5). */
        double certaintyThreshold = 0.60;
        /** Classifier flavor. */
        ClassifierEngine::Algorithm algorithm =
            ClassifierEngine::Algorithm::C45;
        /** Interference detection on/off (Fig. 11 ablation). */
        bool interferenceDetection = true;
        /** Consecutive low-certainty classifications before a full
         *  re-clustering is recommended (§3.5). */
        int relearnAfterMisses = 3;
        /** Classification latency (negligible; §3.5). */
        SimTime classificationOverhead = milliseconds(50);
        /** SLO feedback is ignored this long after a deployment, so
         *  adaptation transients are not mistaken for interference. */
        SimTime feedbackSettleTime = seconds(90);
        /** Consecutive violating samples required before blaming
         *  interference (filters measurement-noise blips). */
        int violationsBeforeBlame = 2;
        /** Consecutive calm (SLO-satisfied, index near 1) samples
         *  before stepping back down from an interference bucket. */
        int calmTicksBeforeDeescalate = 5;
        /** Novelty slack: a signature farther than this multiple of
         *  the predicted cluster's learned radius from its centroid
         *  is treated as a never-seen workload even if the classifier
         *  is confident (out-of-distribution guard). Sized so that
         *  ordinary day-to-day amplitude wobble classifies normally
         *  while genuine flash crowds (30%+ beyond anything seen)
         *  fall back to full capacity. */
        double noveltyRadiusSlack = 2.2;
        ClusteringEngine::Config clustering;
        InterferenceEstimator::Config interference;
        Tuner::Config tuner;
    };

    /** What the controller decided on one workload change. */
    enum class DecisionKind
    {
        CacheHit,          ///< Classified; cached allocation reused.
        UnknownWorkload,   ///< Low certainty; full capacity deployed.
        InterferenceAdjust ///< SLO feedback path redeployed resources.
    };

    struct Decision
    {
        DecisionKind kind = DecisionKind::CacheHit;
        int classId = -1;
        double certainty = 0.0;
        ResourceAllocation allocation;
        /** Time from workload change to the new allocation being
         *  requested (profiling + classification [+ tuning]). */
        SimTime adaptationTime = 0;
        bool reconfigured = false;  ///< Allocation actually changed.
    };

    struct LearningReport
    {
        int samples = 0;
        int classes = 0;
        int tuningExperiments = 0;
        SimTime tuningTime = 0;
        /** Classes whose allocation came out of the (shared)
         *  repository instead of a tuner run — the cross-service
         *  reuse the shared-repository hypothesis predicts. */
        int classesReused = 0;
        std::vector<ResourceAllocation> classAllocations;
    };

    DejaVuController(Service &service, ProfilerHost &profiler,
                     Config config, Rng rng);

    /**
     * Learning phase: profile each workload (trialsPerWorkload
     * times), identify classes, tune one representative per class,
     * and populate the repository. Offline — does not advance the
     * simulation clock. Equivalent to prepareLearning() followed by
     * learnPrepared().
     */
    LearningReport learn(const std::vector<Workload> &workloads);

    /**
     * @name Split learning (intra-cell parallel fleets)
     *
     * learn() decomposes into a member-local half and a shared half:
     * prepareLearning() profiles, clusters, trains the classifier and
     * learns the novelty radii — touching only this controller's own
     * profiler, RNG and model state, so different controllers'
     * prepares may run on different threads concurrently.
     * learnPrepared() then runs the repository probe / tuner / store
     * sequence, which reads and writes the (possibly fleet-shared)
     * repository and must therefore run sequentially in member order
     * — FleetStack::learnAll(threads) relies on exactly this split to
     * produce bit-identical results at any thread count.
     * @{
     */

    /** Member-local half of learn(); thread-safe across distinct
     *  controllers. Leaves the controller un-learned until
     *  learnPrepared(). */
    void prepareLearning(const std::vector<Workload> &workloads);

    /** Shared half of learn(): per-class repository probe, tuner run
     *  and store, in class order. Fatal without a prepareLearning()
     *  to consume. */
    LearningReport learnPrepared();
    /** @} */

    /**
     * Reuse phase: react to a workload change. Collects a signature
     * (sampleDuration), classifies, and schedules the deployment of
     * the resulting allocation after the adaptation delay.
     */
    Decision onWorkloadChange(const Workload &workload);

    /**
     * The reuse-phase reaction to an *already-collected* signature
     * sample: exactly onWorkloadChange() minus the signature
     * collection — classify, novelty-guard, repository walk,
     * bucket/streak bookkeeping and the deferred deployment, all
     * through the same serving::classifySample/decideAllocation
     * kernel the dejavud daemon runs. This is the sim half of the
     * daemon-vs-sim conformance contract: feed the same sample
     * stream here and to a daemon session over the wire and the
     * answers must be bit-identical (tests/test_serving.cc).
     * Unlike onWorkloadChange() it records no novel workload for
     * relearn() (there is no Workload to record) and leaves the
     * SLO-feedback context (_lastWorkload) untouched.
     */
    Decision decideFromSample(const MetricSample &sample);

    /**
     * Non-owning view of the learned classify state (schema,
     * standardizer, classifier, centroids, novelty radii and the
     * certainty/novelty knobs) for the serving layer: the daemon
     * registers this per kind and classifies against it lock-free.
     * Valid only while this controller lives and is not re-learned;
     * fatal before learn().
     */
    serving::DecisionModel servingModel() const;

    /**
     * Predict the workload class a change would classify into,
     * without collecting a signature: classifies the *noise-free*
     * expected signature (Monitor::expectedSample), so the call is
     * RNG-free, does not mutate controller state and does not
     * disturb later decisions. The profiling work-queue uses this as
     * the coalescing key — two same-kind services whose changes
     * predict the same class are asking the pool to measure the same
     * thing. @return the class id, or -1 when unlearned or the
     * prediction falls below the certainty threshold (such work is
     * never coalesced).
     */
    int predictClass(const Workload &workload) const;

    /** The interference bucket the controller currently operates in
     *  (0 = no interference detected). */
    int interferenceBucket() const { return _currentBucket; }

    /**
     * Re-clustering (§3.5): "If the repository repeatedly outputs
     * low certainty levels, it most likely means that the workload
     * has changed over time and that the current clustering is no
     * longer relevant. DejaVu can then initiate the clustering and
     * tuning process once again." Re-runs the learning pipeline over
     * the original workloads plus every unknown workload encountered
     * since, replacing classes, classifier and repository.
     */
    LearningReport relearn();

    /**
     * Production SLO feedback (§3.6): when the SLO is violated right
     * after a classified deployment, estimate the interference index
     * and deploy / tune the interference-aware allocation.
     * @return the decision if the controller reacted.
     */
    std::optional<Decision> onSloFeedback(
        const Service::PerfSample &sample);

    /**
     * The member-local subset of onSloFeedback(), for a monitor
     * drain's observe phase: a sample that needs no reaction (the
     * SLO holds and no interference bucket is open, or feedback is
     * off) is handled exactly as onSloFeedback() would handle it.
     * @return false then; true when the sample needs
     *         onSloFeedback(), in which case nothing changed.
     */
    bool observeSloFeedback(const Service::PerfSample &sample);

    /**
     * @name Deferred tuning (profiling work-queue integration)
     *
     * By default a §3.6 cache miss runs the tuner inline, off the
     * §3.3 pool. DejaVuFleet, which models tuner experiments as pool
     * work, installs a deferral: instead of tuning, the controller records
     * the pending experiment (class, bucket, workload, floored
     * search space), deploys the do-no-harm full-capacity stop-gap
     * and hands (classId, bucket, worst-case duration estimate) to
     * the deferral, which queues a Tuner work item. When the pool
     * grants it, the fleet calls runPendingTuning(); if a peer's
     * result lands in the shared repository first, the fleet cancels
     * the queued item and calls adoptPeerTuning() instead.
     * @{
     */
    using TuningDeferral =
        std::function<void(int classId, int bucket,
                           SimTime estimatedDuration)>;

    /** Install (or clear, with nullptr) the deferral hook. */
    void setTuningDeferral(TuningDeferral fn)
    { _tuningDeferral = std::move(fn); }

    /** True while a deferred tuning awaits a pool slot. While
     *  pending, further SLO feedback does not start new tunings. */
    bool hasPendingTuning() const
    { return _pendingTuning.has_value(); }

    /**
     * Execute the pending tuning now (the pool granted its slot):
     * runs the recorded experiment sequence, stores the result under
     * (class, bucket) and schedules the deployment after the
     * measured tuning time. Fatal without a pending tuning.
     * @return the decision; adaptationTime is the actual tuner
     *         occupancy.
     */
    Decision runPendingTuning();

    /**
     * Resolve the pending tuning from the repository instead of
     * running it (a peer tuned the same (class, bucket) first): on a
     * hit, deploys the peer's allocation after the classification
     * overhead and clears the pending state. The lookup counts on
     * this controller's handle statistics — a successful adoption is
     * a cross hit and a reused entry (one tuner run avoided).
     * @return the decision, or nullopt when the entry is gone (the
     *         pending state is kept; abandon or re-run it).
     */
    std::optional<Decision> adoptPeerTuning();

    /** Drop the pending tuning without replacement (the pool
     *  cancelled it). The stop-gap full-capacity deployment stands —
     *  §3.5's do-no-harm answer. No-op when nothing is pending. */
    void abandonPendingTuning() { _pendingTuning.reset(); }
    /** @} */

    /**
     * Attach this controller to a fleet-shared repository (§3.4's
     * cross-service reuse): lookups and stores go through a handle
     * namespaced by the service's kind, so entries tuned by one
     * controller serve every compatible peer. Must be called before
     * learn() — repository contents are part of the learned state.
     * The caller is responsible for only co-attaching controllers
     * whose same-kind peers share an SLO (entries carry none);
     * FleetExperiment enforces that at registration time. A
     * controller attaches once: a second call is fatal.
     */
    void attachRepository(SharedRepository &repository);

    /** True when attached to an externally owned SharedRepository. */
    bool sharesRepository() const { return _ownedRepo == nullptr; }

    /** @name Introspection @{ */
    bool learned() const { return _learned; }
    const RepositoryHandle &repository() const { return _repo; }
    RepositoryHandle &repository() { return _repo; }
    const SignatureSchema &schema() const { return _schema; }
    const ClassifierEngine &classifier() const { return _classifier; }
    const Clustering &clustering() const { return _clustering; }
    int lastClassId() const { return _lastClassId; }
    int consecutiveLowCertainty() const { return _lowCertaintyStreak; }
    bool relearnRecommended() const
    { return _lowCertaintyStreak >= _config.relearnAfterMisses; }
    /** Unknown workloads accumulated for the next relearn(). */
    const std::vector<Workload> &novelWorkloads() const
    { return _novelWorkloads; }
    int timesRelearned() const { return _timesRelearned; }
    const Config &config() const { return _config; }
    /** @} */

  private:
    Service &_service;
    ProfilerHost &_profiler;
    Config _config;
    Rng _rng;

    /** The default private cache; null while attached to a shared
     *  one. The handle below is the only access path either way. */
    std::unique_ptr<SharedRepository> _ownedRepo;
    RepositoryHandle _repo;
    SignatureSchema _schema;
    Standardizer _standardizer;
    ClassifierEngine _classifier;
    Clustering _clustering;
    InterferenceEstimator _estimator;
    bool _learned = false;

    int _lastClassId = -1;
    Workload _lastWorkload;
    int _lowCertaintyStreak = 0;
    int _currentBucket = 0;
    int _violationStreak = 0;
    int _calmStreak = 0;
    SimTime _lastDeployAt = -1;
    int _timesRelearned = 0;
    std::vector<double> _classRadius;  ///< Learned per-class extent.
    /** The clustering's centroids in one contiguous row-major
     *  allocation (row = class id): the classify/novelty hot path
     *  runs on every workload change fleet-wide and walks adjacent
     *  memory here instead of a vector-of-vectors. Rebuilt by
     *  learn(). */
    FlatMatrix _centroidRows;
    /** Reused signature-tuple buffer for the per-change classify
     *  path (extractInto + transformInPlace — no allocation per
     *  change at fleet scale). Mutable: predictClass() is logically
     *  const. */
    mutable std::vector<double> _tupleScratch;
    std::vector<Workload> _learnedWorkloads;  ///< Last learn() input.
    std::vector<Workload> _novelWorkloads;    ///< Unknowns since.

    /** A §3.6 tuning the fleet queued as pool work (see the
     *  deferred-tuning group above). */
    struct PendingTuning
    {
        int classId = -1;
        int bucket = 0;
        Workload workload;
        /** Search space floored at the allocation that was already
         *  violating — captured at deferral time, before the
         *  stop-gap deployment inflates the cluster. */
        std::vector<ResourceAllocation> searchSpace;
        double interference = 0.0;
    };

    TuningDeferral _tuningDeferral;
    std::optional<PendingTuning> _pendingTuning;
    /** State handed from prepareLearning() to learnPrepared(): only
     *  what the representative choice reads. A fleet holds one per
     *  member between its prepare and finalise. */
    struct PreparedLearning
    {
        std::vector<Workload> workloads;
        std::vector<int> sampleWorkload;  ///< Sample -> workload idx.
        /** Per class, its medoid sample (ClusteringEngine::Result). */
        std::vector<int> representatives;
        /** Per class, its member sample indices. */
        std::vector<std::vector<int>> members;
        int samples = 0;
    };
    std::optional<PreparedLearning> _prepared;

    /** Schedule cluster reconfiguration after @p delay. */
    void deployAfter(SimTime delay, const ResourceAllocation &allocation);

    /** Shared body of onWorkloadChange()/decideFromSample(): the
     *  serving-kernel classify + repository walk plus the
     *  controller-side bookkeeping. @p novelSource, when non-null,
     *  is recorded for relearn() on an unknown classification. */
    Decision decideInternal(const MetricSample &sample,
                            const Workload *novelSource);

    /** Step back to the baseline bucket once interference clears. */
    void maybeDeescalate(const Service::PerfSample &sample);

    Tuner makeTuner();
};

} // namespace dejavu

#endif // DEJAVU_CORE_CONTROLLER_HH
