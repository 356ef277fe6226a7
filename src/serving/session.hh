/**
 * @file
 * One dejavud session: the per-client state the serving hot path
 * reads and the answerSample() kernel that drives it.
 *
 * A session is created by a Hello and lives until Bye, the end of the
 * socket connection that opened it, or daemon shutdown. Concurrency contract: a session is driven by exactly
 * one connection at a time — the transports guarantee it (the bus
 * hands one Connection per client; the socket front-end runs one
 * thread per fd) — so the mutable fields below are *externally
 * synchronized* and deliberately not locked. What is shared across
 * threads is immutable (id, kind, fallback) or atomic (live).
 *
 * The hot path per Sample is: refresh the cached RepositorySnapshot
 * iff the repository version moved, classify with the no-allocation
 * scratch path, walk the snapshot with serving::decideAllocation, and
 * stamp the latency against the budget. No lock is taken anywhere on
 * this path — the only synchronization is the atomic version() read —
 * which is how lookups keep serving while peers store.
 */

#ifndef DEJAVU_SERVING_SESSION_HH
#define DEJAVU_SERVING_SESSION_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/shared_repository.hh"
#include "obs/trace.hh"
#include "serving/decision.hh"
#include "serving/metrics.hh"
#include "serving/wire.hh"

namespace dejavu {
namespace serving {

/**
 * Per-client serving state. See the file comment for the
 * one-driving-connection concurrency contract.
 */
struct Session
{
    /** @name Immutable after Hello @{ */
    std::uint32_t id = 0;
    ServiceKind kind = ServiceKind::KeyValue;
    std::string owner;
    /** The client's full-capacity ceiling: served on unknown
     *  workloads, lost entries and budget breaches. */
    ResourceAllocation fallback;
    /** @} */

    /** Cleared once by ServingServer::closeSession(); a dead session
     *  answers nothing. */
    std::atomic<bool> live{true};

    /** @name Externally synchronized (single driving connection) @{ */
    /** Current §3.6 interference bucket (Bucket frames set it;
     *  answers reset it exactly as DejaVuController::setBucket
     *  does). */
    int bucket = 0;
    /** Cached immutable view of this kind's repository table;
     *  refreshed when SharedRepository::version() moves. */
    RepositorySnapshot snapshot;
    /** Classifier scratch (the PR-6 no-allocation classify path). */
    std::vector<double> scratch;
    /** Samples answered over the session's lifetime. */
    std::uint64_t answered = 0;
    /** Lazily created `session/<id>` trace lane (server.cc) — only
     *  meaningful while the server has a recorder attached. */
    obs::LaneId traceLane = 0;
    bool traceLaneSet = false;
    /** @} */
};

/**
 * Answer one Sample on @p session: the entire dejavud hot path.
 *
 * @p model must be the registry entry for @p session.kind;
 * @p arrivalNanos is the monotonicNanos() stamp taken when the frame
 * entered the process (so transport queueing counts against the
 * budget); @p budgetNanos is ServingServer::Config::budgetNanos.
 * The answer mirrors DejaVuController::onWorkloadChange bit for bit
 * — including the bucket reset on non-hits and baseline hits — except
 * that a breach of the latency budget replaces the allocation with
 * the session fallback (flagged, counted, never blocked on).
 */
AnswerMsg answerSample(Session &session, const DecisionModel &model,
                       const SharedRepository &repo,
                       const SampleMsg &msg,
                       std::uint64_t arrivalNanos,
                       std::uint64_t budgetNanos, Metrics &metrics);

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_SESSION_HH
