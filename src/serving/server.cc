#include "serving/server.hh"

#include "common/logging.hh"

namespace dejavu {
namespace serving {

namespace {

std::size_t
kindIndex(ServiceKind kind)
{
    return static_cast<std::size_t>(kind);
}

} // namespace

ServingServer::ServingServer(SharedRepository &repo, Config config)
    : _repo(repo), _config(config), _gate(config.maxSessions)
{
}

void
ServingServer::registerModel(ServiceKind kind,
                             const DecisionModel &model)
{
    DEJAVU_ASSERT(model.valid(),
                  "registering an incomplete decision model for ",
                  serviceKindName(kind));
    _models[kindIndex(kind)] = model;
}

bool
ServingServer::hasModel(ServiceKind kind) const
{
    return _models[kindIndex(kind)].valid();
}

std::optional<WireFrame>
ServingServer::serve(const WireFrame &request,
                     std::uint64_t arrivalNanos)
{
    WireFrame reply;
    if (!serve(request, arrivalNanos, reply))
        return std::nullopt;
    return reply;
}

bool
ServingServer::serve(const WireFrame &request,
                     std::uint64_t arrivalNanos, WireFrame &reply)
{
    reply.clear();
    const std::optional<MsgType> type = frameType(request);
    if (!type) {
        _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    switch (*type) {
    case MsgType::Hello:
        handleHello(request, reply);
        return !reply.empty();
    case MsgType::Sample:
        handleSample(request, arrivalNanos, reply);
        return !reply.empty();
    case MsgType::Bucket:
        handleBucket(request);
        return false;
    case MsgType::Bye:
        handleBye(request);
        return false;
    case MsgType::HelloAck:
    case MsgType::Answer:
        break;  // Server-bound streams never carry these.
    }
    _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
ServingServer::handleHello(const WireFrame &request, WireFrame &reply)
{
    const std::optional<HelloMsg> msg = decodeHello(request);
    if (!msg) {
        _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    HelloAckMsg ack;
    // A kind with no registered model is rejected up front: the
    // client falls back to local full capacity instead of getting a
    // session whose every sample would fail.
    if (!hasModel(msg->kind) || !_gate.tryAdmit()) {
        _metrics.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        ack.sessionId = HelloAckMsg::kRejected;
        reply = encodeHelloAck(ack);
        return;
    }
    {
        MutexLock lock(_smu);
        const std::uint32_t id =
            static_cast<std::uint32_t>(_sessions.size());
        _sessions.emplace_back();
        Session &session = _sessions.back();
        session.id = id;
        session.kind = msg->kind;
        session.owner = msg->owner;
        session.fallback = msg->fallback;
        ack.sessionId = id;
    }
    _metrics.sessionsOpened.fetch_add(1, std::memory_order_relaxed);
    reply = encodeHelloAck(ack);
}

void
ServingServer::handleSample(const WireFrame &request,
                            std::uint64_t arrivalNanos,
                            WireFrame &reply)
{
    // Per-thread decode scratch: serve() runs on whichever thread
    // drives the transport (client thread, bus thread, socket
    // worker), and each such thread handles one frame at a time —
    // reusing the values capacity makes steady-state decode
    // allocation-free.
    thread_local SampleMsg msg;
    if (!decodeSampleInto(request, msg)) {
        _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Session *session = sessionFor(msg.sessionId);
    if (!session) {
        _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const AnswerMsg answer =
        answerSample(*session, _models[kindIndex(session->kind)],
                     _repo, msg, arrivalNanos, _config.budgetNanos,
                     _metrics);
    encodeAnswerInto(reply, answer);
    DEJAVU_TRACE(if (_trace) {
        // The lane field is externally synchronized like the rest of
        // the session's hot-path state (one driving connection); the
        // recorder itself must be in synchronized mode.
        if (!session->traceLaneSet) {
            session->traceLane = _trace->lane(
                "session/" + std::to_string(session->id),
                obs::ClockDomain::Wall);
            session->traceLaneSet = true;
        }
        const char *name = "sample.hit";
        if (answer.flags & AnswerMsg::kBudgetBreached)
            name = "sample.breach";
        else if (answer.kind == 1)
            name = "sample.unknown";
        else if (answer.kind == 2)
            name = "sample.lost";
        const std::int64_t start =
            _trace->wallMicrosFrom(arrivalNanos);
        _trace->complete(session->traceLane, name, start,
                         _trace->wallMicros() - start,
                         obs::TraceRecorder::kNoDetail, msg.seq);
    });
}

void
ServingServer::handleBucket(const WireFrame &request)
{
    const std::optional<BucketMsg> msg = decodeBucket(request);
    Session *session =
        msg ? sessionFor(msg->sessionId) : nullptr;
    if (!session) {
        _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    session->bucket = msg->bucket;
    _metrics.bucketUpdates.fetch_add(1, std::memory_order_relaxed);
}

void
ServingServer::handleBye(const WireFrame &request)
{
    const std::optional<ByeMsg> msg = decodeBye(request);
    if (!msg || !closeSession(msg->sessionId))
        _metrics.wireErrors.fetch_add(1, std::memory_order_relaxed);
}

bool
ServingServer::closeSession(std::uint32_t id)
{
    Session *session = sessionFor(id);
    // Flip live exactly once even if a confused client sends two
    // Byes, or a Bye races its connection's end — the admission slot
    // must be released exactly once.
    bool expected = true;
    if (!session || !session->live.compare_exchange_strong(expected,
                                                           false))
        return false;
    _gate.release();
    _metrics.sessionsClosed.fetch_add(1, std::memory_order_relaxed);
    return true;
}

// Returns a pointer past _smu: deque elements never relocate and
// sessions are never destroyed before the server, so the reference
// outlives the lock; per-session mutable state is the driving
// connection's alone (session.hh). The analysis cannot see that
// contract, hence the opt-out.
Session *
ServingServer::sessionFor(std::uint32_t id) const
    NO_THREAD_SAFETY_ANALYSIS
{
    MutexLock lock(_smu);
    if (id >= _sessions.size())
        return nullptr;
    Session &session = _sessions[id];
    if (!session.live.load(std::memory_order_acquire))
        return nullptr;
    return &session;
}

int
ServingServer::totalSessions() const
{
    MutexLock lock(_smu);
    return static_cast<int>(_sessions.size());
}

} // namespace serving
} // namespace dejavu
