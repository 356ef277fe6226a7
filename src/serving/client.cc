#include "serving/client.hh"

#include "common/logging.hh"
#include "common/stats.hh"
#include "serving/socket.hh"

namespace dejavu {
namespace serving {

namespace {

/** Scratch frames: decide() encodes into request, and every reply
 *  lands in reply (served into it, or received straight into it), so
 *  a steady-state lookup allocates nothing on either transport (see
 *  the wire codec's *Into variants). A call uses them only while it
 *  runs, on its own thread, so every client a thread drives shares
 *  one pair: a thread serving 10k sessions holds two frames, not
 *  20k. */
struct Frames
{
    WireFrame request;
    WireFrame reply;
};

Frames &
threadFrames()
{
    thread_local Frames frames;
    return frames;
}

} // namespace

ServingClient::ServingClient(ServingServer &server)
    : _direct(&server)
{
}

ServingClient::ServingClient(SocketClient &socket)
    : _socket(&socket)
{
}

void
ServingClient::roundTrip(const WireFrame &frame, bool expectReply,
                         WireFrame &reply)
{
    if (_direct) {
        const bool replied =
            _direct->serve(frame, monotonicNanos(), reply);
        DEJAVU_ASSERT(!expectReply || replied,
                      "serving server returned no reply to a "
                      "reply-bearing frame");
        return;
    }
    DEJAVU_ASSERT(_socket != nullptr,
                  "serving client has no transport");
    DEJAVU_ASSERT(_socket->send(frame),
                  "serving socket send failed");
    if (!expectReply)
        return;
    DEJAVU_ASSERT(_socket->receive(reply),
                  "serving socket closed while awaiting a reply");
}

bool
ServingClient::hello(ServiceKind kind,
                     const ResourceAllocation &fallback,
                     const std::string &owner)
{
    DEJAVU_ASSERT(!connected(),
                  "hello() on an already-connected serving client");
    HelloMsg msg;
    msg.kind = kind;
    msg.fallback = fallback;
    msg.owner = owner;
    WireFrame &reply = threadFrames().reply;
    roundTrip(encodeHello(msg), /*expectReply=*/true, reply);
    const std::optional<HelloAckMsg> ack = decodeHelloAck(reply);
    DEJAVU_ASSERT(ack.has_value(),
                  "malformed HelloAck from serving server");
    if (!ack->accepted())
        return false;
    _session = ack->sessionId;
    return true;
}

AnswerMsg
ServingClient::decide(const std::vector<double> &metricValues)
{
    DEJAVU_ASSERT(connected(),
                  "decide() on an unconnected serving client");
    const std::uint32_t seq = _seq++;
    // Hot path: encode into the thread's scratch (no SampleMsg, no
    // fresh frame) — the reply lands in its scratch too, so a lookup
    // allocates nothing once the capacities are warm.
    Frames &frames = threadFrames();
    encodeSampleInto(frames.request, _session, seq, metricValues);
    roundTrip(frames.request, /*expectReply=*/true, frames.reply);
    const std::optional<AnswerMsg> answer = decodeAnswer(frames.reply);
    DEJAVU_ASSERT(answer.has_value(),
                  "malformed Answer from serving server");
    DEJAVU_ASSERT(answer->seq == seq,
                  "serving answer out of sequence: expected ",
                  seq, ", got ", answer->seq);
    return *answer;
}

void
ServingClient::publishBucket(int bucket)
{
    DEJAVU_ASSERT(connected(),
                  "publishBucket() on an unconnected serving client");
    BucketMsg msg;
    msg.sessionId = _session;
    msg.bucket = bucket;
    roundTrip(encodeBucket(msg), /*expectReply=*/false,
              threadFrames().reply);
}

void
ServingClient::bye()
{
    if (!connected())
        return;
    ByeMsg msg;
    msg.sessionId = _session;
    roundTrip(encodeBye(msg), /*expectReply=*/false,
              threadFrames().reply);
    _session = HelloAckMsg::kRejected;
}

} // namespace serving
} // namespace dejavu
