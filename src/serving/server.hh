/**
 * @file
 * The dejavud serving core: one object that owns the sessions, the
 * admission gate and the metrics, and answers wire frames against a
 * sharded SharedRepository.
 *
 * ServingServer is transport-neutral on purpose. serve() is a
 * synchronous function from request frame to optional reply frame;
 * everything above it is plumbing:
 *
 *  - direct mode: a ServingClient calls serve() on its own thread —
 *    the embedded-client-library shape, zero hand-offs;
 *  - bus mode: ServingBus queues frames to a daemon thread that
 *    calls serve() — the standalone-daemon shape, in-process;
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
#include <cstdint>
#include <deque>
#include <optional>

#include "common/thread_annotations.hh"
#include "core/shared_repository.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/decision.hh"
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
     * Answer one request frame. @p arrivalNanos is the
     * monotonicNanos() stamp from when the frame entered the process
     * — transports stamp before queueing so waiting counts against
     * the budget. Returns the reply frame, or nullopt for
     * fire-and-forget messages (Bucket, Bye) and for malformed
     * frames (counted in Metrics::wireErrors, never fatal — a
     * misbehaving client cannot take the daemon down).
     */
    std::optional<WireFrame> serve(const WireFrame &request,
                                   std::uint64_t arrivalNanos);

    /**
     * Out-parameter variant of serve() — the no-allocation hot path.
     * @p reply is cleared, then filled iff the frame warrants a
     * reply (the return value says whether it was). Steady-state
     * Sample traffic reuses the caller's reply capacity, the
     * session's classify scratch and a per-thread decode scratch, so
     * after warm-up a lookup performs no allocation end to end.
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
     *  session — counted as a wire error by callers). */
    Session *sessionFor(std::uint32_t id) const;

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

    /** Guards the session registry spine only — per-session state
     *  is externally synchronized (session.hh). A deque so sessions
     *  never relocate: references escape the lock by design. */
    mutable Mutex _smu;
    mutable std::deque<Session> _sessions GUARDED_BY(_smu);
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_SERVER_HH
