#include "core/controller.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace dejavu {

DejaVuController::DejaVuController(Service &service,
                                   ProfilerHost &profiler, Config config,
                                   Rng rng)
    : _service(service), _profiler(profiler), _config(std::move(config)),
      _rng(rng),
      _ownedRepo(std::make_unique<SharedRepository>()),
      _repo(_ownedRepo->attach(service.kind())),
      _estimator(_config.interference)
{
    DEJAVU_ASSERT(!_config.searchSpace.empty(),
                  "controller needs a tuning search space");
    DEJAVU_ASSERT(_config.trialsPerWorkload >= 1, "need >= 1 trial");
}

void
DejaVuController::attachRepository(SharedRepository &repository)
{
    DEJAVU_ASSERT(!_learned, "attachRepository after learn(): the "
                  "repository is part of the learned state");
    DEJAVU_ASSERT(!sharesRepository(), "attachRepository called twice: "
                  "a controller attaches to one shared repository");
    _repo = repository.attach(_service.kind());
    _ownedRepo.reset();
}

Tuner
DejaVuController::makeTuner()
{
    return Tuner(_profiler, _config.slo, _config.searchSpace,
                 _config.tuner);
}

DejaVuController::LearningReport
DejaVuController::learn(const std::vector<Workload> &workloads)
{
    prepareLearning(workloads);
    return learnPrepared();
}

void
DejaVuController::prepareLearning(
    const std::vector<Workload> &workloads)
{
    DEJAVU_ASSERT(!workloads.empty(), "no learning workloads");

    // Profile every workload: the proxy mirrors its traffic to the
    // profiling host, trialsPerWorkload times.
    std::vector<MetricSample> samples;
    samples.reserve(workloads.size()
                    * static_cast<std::size_t>(_config.trialsPerWorkload));
    std::vector<int> sampleWorkload;  // sample index -> workload index
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (int t = 0; t < _config.trialsPerWorkload; ++t) {
            samples.push_back(_profiler.collectSignature(workloads[w]));
            sampleWorkload.push_back(static_cast<int>(w));
        }
    }

    // Identify signature schema + workload classes.
    ClusteringEngine engine(_rng.fork(), _config.clustering);
    ClusteringEngine::Result res = engine.identifyClasses(samples);
    _schema = std::move(res.schema);
    _standardizer = std::move(res.standardizer);
    _clustering = std::move(res.clustering);

    // Train the runtime classifier on the labeled clusters.
    ClassifierEngine::Config ccfg;
    ccfg.algorithm = _config.algorithm;
    ccfg.certaintyThreshold = _config.certaintyThreshold;
    _classifier = ClassifierEngine(ccfg);
    _classifier.train(res.labeledSignatures);

    // Learn each class's extent (max member-to-centroid distance in
    // standardized signature space); classification beyond
    // noveltyRadiusSlack times this radius is flagged as a
    // never-seen workload.
    _classRadius.assign(static_cast<std::size_t>(_clustering.k), 0.0);
    for (int i = 0; i < res.labeledSignatures.size(); ++i) {
        const int c = res.labeledSignatures.label(i);
        const double d = std::sqrt(KMeans::squaredDistance(
            res.labeledSignatures.instance(i),
            _clustering.centroids[static_cast<std::size_t>(c)]));
        auto &radius = _classRadius[static_cast<std::size_t>(c)];
        radius = std::max(radius, d);
    }
    // Floor each radius at a fraction of the distance to the nearest
    // other centroid: tight clusters with few members would otherwise
    // flag ordinary measurement noise as novelty.
    for (int c = 0; c < _clustering.k; ++c) {
        double nearest = std::numeric_limits<double>::max();
        for (int o = 0; o < _clustering.k; ++o) {
            if (o == c)
                continue;
            nearest = std::min(nearest, std::sqrt(
                KMeans::squaredDistance(
                    _clustering.centroids[static_cast<std::size_t>(c)],
                    _clustering.centroids[
                        static_cast<std::size_t>(o)])));
        }
        if (nearest < std::numeric_limits<double>::max()) {
            auto &radius = _classRadius[static_cast<std::size_t>(c)];
            radius = std::max(radius, 0.35 * nearest);
        }
    }
    // Pack the centroids into one contiguous row-major block for the
    // per-change classify/novelty path.
    _centroidRows.assign(_clustering.centroids);

    // Hand learnPrepared() only what it reads: a fleet prepares every
    // member before finalising any, so the labeled signature dataset
    // must die with `res` here.
    PreparedLearning prepared;
    prepared.workloads = workloads;
    prepared.sampleWorkload = std::move(sampleWorkload);
    prepared.representatives = std::move(res.representatives);
    prepared.members = std::move(res.members);
    prepared.samples = static_cast<int>(samples.size());
    _prepared = std::move(prepared);
}

DejaVuController::LearningReport
DejaVuController::learnPrepared()
{
    DEJAVU_ASSERT(_prepared.has_value(),
                  "learnPrepared without prepareLearning");
    const PreparedLearning prepared = std::move(*_prepared);
    _prepared.reset();
    const std::vector<Workload> &workloads = prepared.workloads;
    const std::vector<int> &sampleWorkload = prepared.sampleWorkload;

    // Tune one representative workload per class: the instance
    // closest to the cluster centroid (§3.4).
    LearningReport report;
    report.samples = prepared.samples;
    report.classes = _clustering.k;
    Tuner tuner = makeTuner();
    _repo.clear();
    for (int c = 0; c < _clustering.k; ++c) {
        // Cross-service reuse (§3.4 applied fleet-wide): when a
        // compatible controller already tuned this (kind, class), the
        // shared repository serves its allocation and this service
        // skips the tuner entirely. Private repositories were just
        // cleared, so this probe always misses there — the lookup is
        // still counted, making learning-phase reuse visible in the
        // same hit/miss statistics the reuse phase reports.
        if (auto reused = _repo.lookup({c, 0})) {
            report.classAllocations.push_back(*reused);
            ++report.classesReused;
            inform("learning: class ", c,
                   " reused from shared repository -> ",
                   reused->toString());
            continue;
        }
        int sampleIdx =
            prepared.representatives[static_cast<std::size_t>(c)];
        DEJAVU_ASSERT(sampleIdx >= 0, "cluster ", c, " empty");
        if (_config.representativeRule ==
            RepresentativeRule::MostDemanding) {
            double mostClients = -1.0;
            for (int m :
                 prepared.members[static_cast<std::size_t>(c)]) {
                const Workload &wm = workloads[
                    static_cast<std::size_t>(sampleWorkload[
                        static_cast<std::size_t>(m)])];
                if (wm.clients > mostClients) {
                    mostClients = wm.clients;
                    sampleIdx = m;
                }
            }
        }
        const Workload &representative = workloads[
            static_cast<std::size_t>(sampleWorkload[
                static_cast<std::size_t>(sampleIdx)])];
        const Tuner::Result tuned = tuner.tune(representative, 0.0);
        report.tuningExperiments += tuned.experiments;
        report.tuningTime += tuned.tuningTime;
        _repo.store({c, 0}, tuned.allocation);
        report.classAllocations.push_back(tuned.allocation);
        inform("learning: class ", c, " (", representative.clients,
               " clients) -> ", tuned.allocation.toString(),
               tuned.feasible ? "" : " [SLO infeasible]");
    }
    _learned = true;
    _lowCertaintyStreak = 0;
    _learnedWorkloads = workloads;
    _novelWorkloads.clear();
    return report;
}

DejaVuController::LearningReport
DejaVuController::relearn()
{
    DEJAVU_ASSERT(_learned, "relearn before the initial learn()");
    std::vector<Workload> all = _learnedWorkloads;
    all.insert(all.end(), _novelWorkloads.begin(),
               _novelWorkloads.end());
    inform("re-clustering: ", _learnedWorkloads.size(),
           " original + ", _novelWorkloads.size(),
           " novel workloads");
    ++_timesRelearned;
    _currentBucket = 0;
    _violationStreak = 0;
    _calmStreak = 0;
    return learn(all);
}

serving::DecisionModel
DejaVuController::servingModel() const
{
    DEJAVU_ASSERT(_learned, "servingModel before learn(): the view "
                  "points at learned state");
    serving::DecisionModel model;
    model.schema = &_schema;
    model.standardizer = &_standardizer;
    model.classifier = &_classifier;
    model.classRadius = &_classRadius;
    model.centroidRows = &_centroidRows;
    model.certaintyThreshold = _config.certaintyThreshold;
    model.noveltyRadiusSlack = _config.noveltyRadiusSlack;
    return model;
}

int
DejaVuController::predictClass(const Workload &workload) const
{
    if (!_learned)
        return -1;
    // The noise-free expected signature keeps this RNG-free: a
    // prediction must never shift the profiler's random stream, or
    // coalesced runs would stop being comparable to uncoalesced ones.
    const MetricSample sample =
        _profiler.monitor().expectedSample(workload);
    const ClassifierEngine::Outcome outcome =
        serving::classifySample(servingModel(), sample.values,
                                _tupleScratch);
    return outcome.known ? outcome.classId : -1;
}

void
DejaVuController::deployAfter(SimTime delay,
                              const ResourceAllocation &allocation)
{
    _service.queue().scheduleAfter(delay, [this, allocation] {
        if (_service.cluster().target() != allocation) {
            _service.cluster().deploy(allocation);
            _service.onReconfigure();
        }
        _lastDeployAt = _service.queue().now();
    });
}

DejaVuController::Decision
DejaVuController::onWorkloadChange(const Workload &workload)
{
    DEJAVU_ASSERT(_learned,
                  "onWorkloadChange before learn(): run the learning "
                  "phase first");
    _lastWorkload = workload;

    // Collect the signature (the dominant part of adaptation time).
    const MetricSample sample = _profiler.collectSignature(workload);
    return decideInternal(sample, &workload);
}

DejaVuController::Decision
DejaVuController::decideFromSample(const MetricSample &sample)
{
    DEJAVU_ASSERT(_learned,
                  "decideFromSample before learn(): run the learning "
                  "phase first");
    return decideInternal(sample, nullptr);
}

DejaVuController::Decision
DejaVuController::decideInternal(const MetricSample &sample,
                                 const Workload *novelSource)
{
    const ClassifierEngine::Outcome outcome = serving::classifySample(
        servingModel(), sample.values, _tupleScratch);

    Decision decision;
    decision.adaptationTime = _profiler.monitor().sampleDuration()
        + _config.classificationOverhead;
    decision.certainty = outcome.certainty;
    decision.classId = outcome.classId;
    _violationStreak = 0;

    // The repository walk is the serving kernel, fed by the counting
    // handle: while an interference episode is ongoing, the (class,
    // bucket) entry is tried before the baseline (§3.6 reuse); a
    // known class with no entry is tolerated only under sharing.
    const serving::ServingAnswer answer = serving::decideAllocation(
        outcome, _currentBucket,
        [this](const RepositoryKey &key) { return _repo.lookup(key); },
        _service.cluster().maxAllocation(), sharesRepository());
    decision.allocation = answer.allocation;

    switch (answer.kind) {
      case serving::ServingAnswer::Kind::UnknownWorkload:
        // Never-seen workload: avoid an SLO violation by deploying
        // full capacity; repeated misses recommend re-clustering.
        ++_lowCertaintyStreak;
        if (novelSource)
            _novelWorkloads.push_back(*novelSource);
        _lastClassId = -1;
        _currentBucket = 0;
        decision.kind = DecisionKind::UnknownWorkload;
        warn("dejavu: unknown workload (certainty ", outcome.certainty,
             "), deploying full capacity ",
             decision.allocation.toString());
        break;
      case serving::ServingAnswer::Kind::LostEntry:
        // A shared entry this controller reused can disappear under
        // it when the peer that wrote it re-clusters and clears its
        // own writes. Losing a *private* entry is a bug (the kernel
        // asserts), but losing a shared one is a legitimate race in
        // the sharing design — fall back to full capacity, the same
        // do-no-harm answer §3.5 gives for unknown workloads.
        _lowCertaintyStreak = 0;
        _currentBucket = 0;
        warn("dejavu: shared repository entry for class ",
             outcome.classId, " was invalidated by a peer; "
             "deploying full capacity");
        _lastClassId = -1;
        decision.kind = DecisionKind::UnknownWorkload;
        break;
      case serving::ServingAnswer::Kind::CacheHit:
        _lowCertaintyStreak = 0;
        _lastClassId = outcome.classId;
        decision.kind = DecisionKind::CacheHit;
        // The §3.6 episode ends exactly when the bucketed entry did
        // not serve the hit — the same transition the pre-serving
        // code made before its baseline lookup.
        if (answer.bucketUsed == 0)
            _currentBucket = 0;
        break;
    }

    decision.reconfigured =
        _service.cluster().target() != decision.allocation;
    deployAfter(decision.adaptationTime, decision.allocation);
    return decision;
}

bool
DejaVuController::observeSloFeedback(const Service::PerfSample &sample)
{
    if (!_learned || !_config.interferenceDetection || _lastClassId < 0)
        return false;
    // Satisfied with no bucket open: onSloFeedback() only resets the
    // streak (maybeDeescalate() has nothing to step down from).
    if (_currentBucket != 0
        || !_config.slo.satisfied(sample.meanLatencyMs,
                                  sample.qosPercent))
        return true;
    _violationStreak = 0;
    return false;
}

std::optional<DejaVuController::Decision>
DejaVuController::onSloFeedback(const Service::PerfSample &sample)
{
    if (!_learned || !_config.interferenceDetection || _lastClassId < 0)
        return std::nullopt;
    if (_config.slo.satisfied(sample.meanLatencyMs, sample.qosPercent)) {
        _violationStreak = 0;
        maybeDeescalate(sample);
        return std::nullopt;
    }
    // Let reconfiguration transients (VM warm-up, re-partitioning
    // onset) settle before attributing a violation to interference.
    const SimTime now = _service.queue().now();
    if (_lastDeployAt < 0 ||
        now < _lastDeployAt + _config.feedbackSettleTime)
        return std::nullopt;
    // While a deferred tuning waits for its pool slot, the stop-gap
    // full-capacity deployment is already §3.5's do-no-harm answer;
    // don't stack further blame (and further queued experiments) on
    // top of the one in flight.
    if (_pendingTuning)
        return std::nullopt;
    // Require persistence: single violating samples are noise.
    if (++_violationStreak < _config.violationsBeforeBlame)
        return std::nullopt;

    // The workload class was just identified in isolation, so the
    // violation is blamed on interference (§3.6). Contrast production
    // with the profiler's isolated measurement of the same deployment.
    const ResourceAllocation current = _service.cluster().target();
    double index;
    if (_config.slo.kind == SloKind::LatencyBound) {
        const double iso =
            _profiler.isolatedLatencyMs(_lastWorkload, current);
        index = InterferenceEstimator::latencyIndex(
            sample.meanLatencyMs, iso);
    } else {
        const double iso =
            _profiler.isolatedQosPercent(_lastWorkload, current);
        index = InterferenceEstimator::qosIndex(sample.qosPercent, iso);
    }
    _violationStreak = 0;
    const int bucket = _estimator.bucketOf(index);
    if (bucket == 0 || bucket == _currentBucket)
        return std::nullopt;  // measurement noise, or already handled

    Decision decision;
    decision.kind = DecisionKind::InterferenceAdjust;
    decision.classId = _lastClassId;
    decision.certainty = 1.0;
    _currentBucket = bucket;

    auto cached = _repo.lookup({_lastClassId, bucket});
    if (cached) {
        decision.allocation = *cached;
        decision.adaptationTime = _config.classificationOverhead;
    } else {
        // Tune under the current production conditions; the bucketed
        // index is the cache key for next time. The experiments run
        // against the interference actually present in production,
        // and the search starts from the current (already violated)
        // allocation — anything smaller cannot satisfy the SLO.
        const double loss = _service.cluster().meanInterference();
        std::vector<ResourceAllocation> floored;
        for (const auto &candidate : _config.searchSpace)
            if (!lessCapacity(candidate, current))
                floored.push_back(candidate);
        if (floored.empty())
            floored.push_back(_service.cluster().maxAllocation());
        // Stop-gap while the experiments run: full capacity, the
        // same do-no-harm fallback §3.5 uses for unknown workloads.
        deployAfter(_config.classificationOverhead,
                    _service.cluster().maxAllocation());
        if (_tuningDeferral) {
            // The fleet models tuner experiments as §3.3 pool work:
            // record the experiment and queue it instead of running
            // it inline. The worst-case estimate (every candidate
            // measured) is what the slot scheduler sorts by; the
            // actual occupancy comes from runPendingTuning().
            const SimTime estimate =
                static_cast<SimTime>(floored.size())
                * _profiler.config().experimentDuration;
            _pendingTuning = PendingTuning{
                _lastClassId, bucket, _lastWorkload,
                std::move(floored), loss};
            decision.allocation = _service.cluster().maxAllocation();
            decision.adaptationTime = _config.classificationOverhead;
            inform("interference: class ", _lastClassId, " bucket ",
                   bucket, " queued as pool work (estimate ",
                   toSeconds(estimate), " s)");
            _tuningDeferral(_lastClassId, bucket, estimate);
        } else {
            Tuner tuner(_profiler, _config.slo, floored,
                        _config.tuner);
            const Tuner::Result tuned = tuner.tune(_lastWorkload, loss);
            _repo.store({_lastClassId, bucket}, tuned.allocation);
            decision.allocation = tuned.allocation;
            decision.adaptationTime = tuned.tuningTime;
            inform("interference: class ", _lastClassId, " index ",
                   index, " bucket ", bucket, " -> ",
                   tuned.allocation.toString(), " after ",
                   tuned.experiments, " experiments");
        }
    }

    decision.reconfigured =
        _service.cluster().target() != decision.allocation;
    deployAfter(decision.adaptationTime, decision.allocation);
    return decision;
}

DejaVuController::Decision
DejaVuController::runPendingTuning()
{
    DEJAVU_ASSERT(_pendingTuning.has_value(),
                  "runPendingTuning without a pending tuning");
    const PendingTuning pending = std::move(*_pendingTuning);
    _pendingTuning.reset();

    Tuner tuner(_profiler, _config.slo, pending.searchSpace,
                _config.tuner);
    const Tuner::Result tuned =
        tuner.tune(pending.workload, pending.interference);
    // The result exists when the experiment sequence *finishes* —
    // store it then, not now, so peers probing the shared repository
    // mid-occupancy cannot adopt a measurement that is still
    // running. (The inline §3.6 path stores at decision time; its
    // repository is consulted by the same controller whose decision
    // already charges the tuning time, so the distinction only
    // matters for pool work.)
    _service.queue().scheduleAfter(
        tuned.tuningTime,
        [this, key = RepositoryKey{pending.classId, pending.bucket},
         allocation = tuned.allocation] {
            _repo.store(key, allocation);
        });

    Decision decision;
    decision.kind = DecisionKind::InterferenceAdjust;
    decision.classId = pending.classId;
    decision.certainty = 1.0;
    decision.allocation = tuned.allocation;
    decision.adaptationTime = tuned.tuningTime;
    decision.reconfigured =
        _service.cluster().target() != tuned.allocation;
    deployAfter(tuned.tuningTime, tuned.allocation);
    inform("interference: class ", pending.classId, " bucket ",
           pending.bucket, " pool-tuned -> ",
           tuned.allocation.toString(), " after ", tuned.experiments,
           " experiments");
    return decision;
}

std::optional<DejaVuController::Decision>
DejaVuController::adoptPeerTuning()
{
    if (!_pendingTuning)
        return std::nullopt;
    // Probe without counting first: callers may ask speculatively
    // (e.g. at every tuner grant), and an absent entry is not a
    // logical cache access. The adoption itself is a counted lookup
    // — exactly the cross-service reuse the shared repository
    // exists to measure.
    const RepositoryKey key{_pendingTuning->classId,
                            _pendingTuning->bucket};
    if (!_repo.peek(key))
        return std::nullopt;
    auto cached = _repo.lookup(key);
    DEJAVU_ASSERT(cached.has_value(),
                  "peeked repository entry vanished under lookup");

    Decision decision;
    decision.kind = DecisionKind::InterferenceAdjust;
    decision.classId = _pendingTuning->classId;
    decision.certainty = 1.0;
    decision.allocation = *cached;
    decision.adaptationTime = _config.classificationOverhead;
    decision.reconfigured = _service.cluster().target() != *cached;
    deployAfter(_config.classificationOverhead, *cached);
    inform("interference: class ", _pendingTuning->classId,
           " bucket ", _pendingTuning->bucket,
           " adopted from a peer's tuning -> ", cached->toString());
    _pendingTuning.reset();
    return decision;
}

void
DejaVuController::maybeDeescalate(const Service::PerfSample &sample)
{
    // While an interference bucket is active and the SLO holds,
    // compare production against isolation at the *current* inflated
    // allocation: an index back around 1 means the co-located
    // pressure is gone and the baseline allocation suffices again.
    if (_currentBucket == 0)
        return;
    const ResourceAllocation current = _service.cluster().target();
    double index;
    if (_config.slo.kind == SloKind::LatencyBound) {
        const double iso =
            _profiler.isolatedLatencyMs(_lastWorkload, current);
        index = InterferenceEstimator::latencyIndex(
            sample.meanLatencyMs, iso);
    } else {
        const double iso =
            _profiler.isolatedQosPercent(_lastWorkload, current);
        index = InterferenceEstimator::qosIndex(sample.qosPercent, iso);
    }
    // Hysteresis: escalation fires above 1 + tolerance, but we only
    // step back down when the index is comfortably below it —
    // otherwise a borderline index would thrash between baseline and
    // bucket every few minutes.
    const double deescalateBelow =
        1.0 + _estimator.config().tolerance / 2.0;
    if (index >= deescalateBelow) {
        _calmStreak = 0;
        return;
    }
    if (++_calmStreak < _config.calmTicksBeforeDeescalate)
        return;
    _calmStreak = 0;
    _currentBucket = 0;
    auto baseline = _repo.lookup({_lastClassId, 0});
    if (baseline && _service.cluster().target() != *baseline) {
        inform("interference cleared: class ", _lastClassId,
               " back to baseline ", baseline->toString());
        deployAfter(_config.classificationOverhead, *baseline);
    }
}

} // namespace dejavu
