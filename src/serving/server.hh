/**
 * @file
 * The dejavud serving core: one object that owns the sessions, the
 * admission gate and the metrics, and answers wire frames against
 * lock-free snapshots of a SharedRepository.
 *
 * ServingServer is transport-neutral on purpose. serve() is a
 * synchronous function from request frame to reply frame (or none);
 * everything above it is plumbing:
 *
 *  - direct mode: a ServingClient calls serve() on its own thread —
 *    the embedded-client-library shape, zero hand-offs;
 *  - socket mode: SocketServer reads frames off AF_UNIX fds and
 *    calls serve() per connection — the out-of-process shape.
 *
 * serve() is safe to call from many threads at once *for different
 * sessions*: the per-session state is only ever touched by the
 * session's single driving connection (see session.hh), the session
 * registry is a mutex-guarded deque whose elements never move, and
 * everything else on the path is atomic or immutable. Decision
 * models are registered before serving starts and never change
 * afterwards — re-learning means restarting the daemon, which the
 * repository's save()/load() round trip makes loss-free
 * (docs/SERVING.md, "restart vs. reload").
 */

#ifndef DEJAVU_SERVING_SERVER_HH
#define DEJAVU_SERVING_SERVER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/thread_annotations.hh"
#include "core/decision.hh"
#include "core/shared_repository.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/metrics.hh"
#include "serving/session.hh"
#include "serving/wire.hh"

namespace dejavu {
namespace serving {

/**
 * The serving core. See the file comment for the threading model.
 */
class ServingServer
{
  public:
    struct Config
    {
        /**
         * Per-answer latency budget in nanoseconds, measured from
         * frame arrival (queueing included) to answer. An answer
         * that exceeds it is replaced by the session's full-capacity
         * fallback, flagged and counted — never blocked on. 0
         * degenerates to "always fall back"; kNoBudget disables the
         * check.
         */
        std::uint64_t budgetNanos = 250'000;
        /** Admission-gate session limit. */
        int maxSessions = 65536;
    };

    static constexpr std::uint64_t kNoBudget = ~std::uint64_t{0};

    /** @p repo must outlive the server (the daemon owns both). */
    ServingServer(SharedRepository &repo, Config config);

    /**
     * Register the learned model serving @p kind. Must complete
     * before the first serve() call touches that kind (registration
     * is not synchronized against serving — models are immutable
     * once live). The pointees of @p model must outlive the server.
     */
    void registerModel(ServiceKind kind, const DecisionModel &model);

    bool hasModel(ServiceKind kind) const;

    /**
     * Answer one request frame into @p reply. @p arrivalNanos is the
     * monotonicNanos() stamp from when the frame entered the process,
     * so time spent before serve() counts against the budget.
     * @p reply is cleared, then filled iff the frame warrants a reply;
     * the return value says whether it was. Fire-and-forget messages
     * (Bucket, Bye) get none, and neither do malformed frames
     * (counted in Metrics::wireErrors, never fatal — a misbehaving
     * client cannot take the daemon down). Steady-state Sample
     * traffic reuses the caller's reply capacity, the session's
     * classify scratch and a per-thread decode scratch, so after
     * warm-up a lookup performs no allocation end to end.
     */
    bool serve(const WireFrame &request, std::uint64_t arrivalNanos,
               WireFrame &reply);

    /**
     * Close session @p id and release its admission slot, exactly
     * once: false (and nothing counted) when the id is unknown or the
     * session is already closed. Bye frames end here; so do the
     * sessions a transport's connection still holds when it drops
     * without sending Bye.
     */
    bool closeSession(std::uint32_t id);

    SharedRepository &repository() { return _repo; }
    const Config &config() const { return _config; }
    Metrics &metrics() { return _metrics; }
    const Metrics &metrics() const { return _metrics; }
    AdmissionGate &admission() { return _gate; }

    /** Sessions ever opened (ids are dense from 0). */
    int totalSessions() const;

    /**
     * Attach a trace recorder (docs/OBSERVABILITY.md): each answered
     * Sample becomes a wall-time `sample.*` span (outcome in the
     * name, seq in the arg) on a per-session `session/<id>` lane,
     * spanning frame arrival to answer encode. The recorder MUST be
     * constructed with Config{.synchronized = true} — transports
     * drive serve() from many threads. Null detaches.
     */
    void setTrace(obs::TraceRecorder *trace) { _trace = trace; }

  private:
    /** Handlers fill @p reply (already cleared) when they have one. */
    void handleHello(const WireFrame &request, WireFrame &reply);
    void handleSample(const WireFrame &request,
                      std::uint64_t arrivalNanos, WireFrame &reply);
    void handleBucket(const WireFrame &request);
    void handleBye(const WireFrame &request);

    /** The live session for @p id, or nullptr (bad id / dead
     *  session — counted as a wire error by callers). Takes no
     *  lock: it runs on every Sample, from every transport thread. */
    Session *sessionFor(std::uint32_t id) const;

    /** Index slots in the first chunk; chunk c holds
     *  kFirstChunk << c, so kIndexChunks chunks cover every 32-bit
     *  session id. */
    static constexpr std::uint32_t kFirstChunk = 1024;
    static constexpr std::size_t kIndexChunks = 23;

    /** (chunk, offset) of session @p id in _sessions. */
    static std::pair<std::size_t, std::size_t> slotOf(std::uint32_t id);

    SharedRepository &_repo;
    Config _config;
    Metrics _metrics;
    AdmissionGate _gate;
    obs::TraceRecorder *_trace = nullptr;

    /** Model registry, indexed by ServiceKind; a default
     *  (invalid()) entry means the kind is not served. Written only
     *  by registerModel() before serving starts. */
    std::array<DecisionModel,
               static_cast<std::size_t>(ServiceKind::Ycsb) + 1>
        _models{};

    /** Serializes session creation (Hello) and the index writes it
     *  makes. Per-session state is externally synchronized
     *  (session.hh). */
    Mutex _smu;
    /**
     * The sessions by id, in chunks that never move, so sessionFor
     * reads without a lock. handleHello creates a session and fills
     * its slot (allocating the chunk) under _smu, then publishes the
     * id by storing _opened with release order; sessionFor loads
     * _opened with acquire order, so every slot below it is fully
     * written. Slots are never cleared and sessions live as long as
     * the server, so a returned pointer stays valid.
     */
    std::array<std::unique_ptr<std::unique_ptr<Session>[]>,
               kIndexChunks>
        _sessions;
    /** Sessions ever opened: ids [0, _opened) are published. */
    std::atomic<std::uint32_t> _opened{0};
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_SERVER_HH
