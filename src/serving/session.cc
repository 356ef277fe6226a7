#include "serving/session.hh"

#include <vector>

#include "common/stats.hh"

namespace dejavu {
namespace serving {

AnswerMsg
answerSample(Session &session, const DecisionModel &model,
             const SharedRepository &repo, const SampleMsg &msg,
             std::uint64_t arrivalNanos, std::uint64_t budgetNanos,
             Metrics &metrics)
{
    metrics.samples.inc();

    // Epoch read path: refresh the frozen view only when a store or
    // clear actually moved the repository version. The comparison is
    // one atomic read; the refresh (rare) picks up the table every
    // session of this kind shares, which the repository collects
    // once per kind and version.
    if (session.snapshot.version() != repo.version()) {
        session.snapshot = repo.snapshot(session.kind);
        metrics.snapshotRefreshes.inc();
    }

    // Per-thread classify scratch: used only inside this call, so
    // every session the thread answers shares its capacity.
    thread_local std::vector<double> scratch;
    const ClassifierEngine::Outcome outcome =
        classifySample(model, msg.values, scratch);
    const ServingAnswer answer = decideAllocation(
        outcome, session.bucket,
        [&session](const RepositoryKey &key) {
            return session.snapshot.find(key);
        },
        session.fallback, /*lostEntryTolerated=*/true);

    // Mirror DejaVuController's bucket bookkeeping exactly: every
    // non-hit deploys full capacity and resets the bucket, and a hit
    // served by the baseline (class, 0) entry marks the interference
    // episode over.
    if (answer.kind != ServingAnswer::Kind::CacheHit
        || answer.bucketUsed == 0)
        session.bucket = 0;

    switch (answer.kind) {
    case ServingAnswer::Kind::CacheHit:
        metrics.cacheHits.inc();
        break;
    case ServingAnswer::Kind::UnknownWorkload:
        metrics.unknowns.inc();
        break;
    case ServingAnswer::Kind::LostEntry:
        metrics.lostEntries.inc();
        break;
    }

    AnswerMsg out;
    out.sessionId = session.id;
    out.seq = msg.seq;
    out.kind = static_cast<std::uint8_t>(answer.kind);
    out.classId = answer.classId;
    std::memcpy(&out.certaintyBits, &answer.certainty,
                sizeof out.certaintyBits);
    out.bucketUsed =
        answer.kind == ServingAnswer::Kind::CacheHit
            ? answer.bucketUsed
            : -1;
    out.allocation = answer.allocation;

    // The budget check runs after the work: the answer is already
    // computed, but if it took too long the client's deadline has
    // passed and the do-no-harm response is its full-capacity
    // fallback. A zero budget therefore degenerates to "always
    // fall back" (tests use this to pin the fallback path).
    const std::uint64_t elapsed = monotonicNanos() - arrivalNanos;
    if (elapsed >= budgetNanos) {
        out.flags |= AnswerMsg::kBudgetBreached;
        out.allocation = session.fallback;
        metrics.budgetBreaches.inc();
    }
    metrics.latency.record(elapsed);
    ++session.answered;
    return out;
}

} // namespace serving
} // namespace dejavu
