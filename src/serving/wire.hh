/**
 * @file
 * The dejavud wire format: length-prefixed little-endian frames.
 *
 * One frame = a 4-byte little-endian payload length followed by the
 * payload; the payload's first byte is the message type. Numbers are
 * fixed-width little-endian regardless of host order; doubles travel
 * as their raw IEEE-754 bit pattern (via memcpy), so a metric sample
 * round-trips *bit-identically* — the foundation of the daemon-vs-sim
 * conformance digests (tests/test_serving.cc). Strings are a 16-bit
 * length followed by raw bytes.
 *
 * The codec is deliberately transport-agnostic: a direct client hands
 * decoded-length payloads (`WireFrame`) to ServingServer::serve(),
 * while the Unix-socket front-end (socket.hh) streams the 4-byte
 * prefix + payload over the fd and reassembles frames with
 * FrameReader. Decode functions are total: they return std::nullopt
 * on any malformed input (short payload, bad enum value, oversized
 * vector) instead of trusting the peer — the server counts such
 * frames in Metrics::wireErrors and drops them.
 *
 * Message flow (client = proxy/controller side, server = dejavud):
 *
 *     client                          server
 *       | -- Hello(kind,fallback) -->   |   admission check
 *       | <-- HelloAck(sessionId) --    |
 *       | -- Sample(seq,values) ---->   |   classify + lookup
 *       | <-- Answer(seq,alloc) -----   |
 *       | -- Bucket(bucket) -------->   |   (no reply)
 *       | -- Bye() ----------------->   |   (no reply)
 */

#ifndef DEJAVU_SERVING_WIRE_HH
#define DEJAVU_SERVING_WIRE_HH

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "services/service_kind.hh"
#include "sim/allocation.hh"

namespace dejavu {
namespace serving {

/** One decoded-length frame payload (type byte + body, no length
 *  prefix). */
using WireFrame = std::vector<std::uint8_t>;

/** Payload type tags (first payload byte). */
enum class MsgType : std::uint8_t {
    Hello = 1,    ///< client→server: open a session.
    HelloAck = 2, ///< server→client: session id (or rejection).
    Sample = 3,   ///< client→server: one monitor sample.
    Answer = 4,   ///< server→client: the allocation decision.
    Bucket = 5,   ///< client→server: interference-bucket update.
    Bye = 6,      ///< client→server: close the session.
};

/** Largest payload either side will accept (1 MiB); a length prefix
 *  beyond this is treated as a framing error, not an allocation. */
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** Hello: open a session for one service replica. */
struct HelloMsg
{
    ServiceKind kind = ServiceKind::KeyValue;
    /** Full-capacity allocation deployed on unknown workloads, lost
     *  entries and budget breaches — the client's cluster ceiling. */
    ResourceAllocation fallback;
    /** Operator-visible label (service name); purely diagnostic. */
    std::string owner;
};

/** HelloAck: the id all later frames must carry. */
struct HelloAckMsg
{
    /** Session id; kRejected when the admission gate refused. */
    std::uint32_t sessionId = 0;
    static constexpr std::uint32_t kRejected = 0xffffffffu;
    bool accepted() const { return sessionId != kRejected; }
};

/** Sample: one signature's metric values, in schema column order. */
struct SampleMsg
{
    std::uint32_t sessionId = 0;
    /** Client-chosen sequence number, echoed in the Answer. */
    std::uint32_t seq = 0;
    std::vector<double> values;
};

/** Answer: the allocation decision for one Sample. */
struct AnswerMsg
{
    std::uint32_t sessionId = 0;
    std::uint32_t seq = 0;
    /** serving::ServingAnswer::Kind as u8 (0 hit, 1 unknown,
     *  2 lost). */
    std::uint8_t kind = 0;
    std::uint8_t flags = 0;
    /** Classifier class (-1 when unknown). */
    std::int32_t classId = -1;
    /** Raw IEEE-754 bits of the classifier certainty — bit-exact on
     *  purpose (conformance digests hash these). */
    std::uint64_t certaintyBits = 0;
    /** Interference bucket the lookup used (-1 when no lookup). */
    std::int32_t bucketUsed = -1;
    ResourceAllocation allocation;

    /** flags bit: the answer exceeded the latency budget and was
     *  replaced by the session's full-capacity fallback. */
    static constexpr std::uint8_t kBudgetBreached = 0x01;

    double certainty() const
    {
        double c;
        std::memcpy(&c, &certaintyBits, sizeof c);
        return c;
    }
};

/** Bucket: proxy publishes an interference-bucket transition. */
struct BucketMsg
{
    std::uint32_t sessionId = 0;
    std::int32_t bucket = 0;
};

/** Bye: close the session (frees its admission slot). */
struct ByeMsg
{
    std::uint32_t sessionId = 0;
};

/** Type tag of a frame; nullopt for an empty or unknown-typed
 *  payload. */
std::optional<MsgType> frameType(const WireFrame &frame);

/** @name Encoders (always succeed) @{ */
WireFrame encodeHello(const HelloMsg &msg);
WireFrame encodeHelloAck(const HelloAckMsg &msg);
WireFrame encodeBucket(const BucketMsg &msg);
WireFrame encodeBye(const ByeMsg &msg);
/** @} */

/** @name Decoders (nullopt on malformed input; never fatal) @{ */
std::optional<HelloMsg> decodeHello(const WireFrame &frame);
std::optional<HelloAckMsg> decodeHelloAck(const WireFrame &frame);
std::optional<AnswerMsg> decodeAnswer(const WireFrame &frame);
std::optional<BucketMsg> decodeBucket(const WireFrame &frame);
std::optional<ByeMsg> decodeBye(const WireFrame &frame);
/** @} */

/**
 * @name Scratch-reusing codec variants — the Sample/Answer hot path
 *
 * The steady-state lookup loop runs millions of frames per second;
 * these variants clear and refill caller-owned buffers instead of
 * allocating fresh ones, so after warm-up the whole
 * encode -> serve -> decode round trip performs no allocation (the
 * serving-layer analogue of the classifier's FlatMatrix scratch
 * path). Sample and Answer frames have no allocating form.
 * @{
 */
/** Encode a Sample without materializing a SampleMsg: @p out is
 *  cleared and refilled, capacity retained. */
void encodeSampleInto(WireFrame &out, std::uint32_t sessionId,
                      std::uint32_t seq,
                      const std::vector<double> &values);
/** Decode a Sample into @p msg, reusing msg.values capacity.
 *  @return false (msg unspecified) on malformed input. */
bool decodeSampleInto(const WireFrame &frame, SampleMsg &msg);
/** Encode an Answer into @p out (overwritten, capacity kept). */
void encodeAnswerInto(WireFrame &out, const AnswerMsg &msg);
/** @} */

/** Append the stream form of @p frame (u32 LE length + payload) to
 *  @p out — what the socket transport writes to the fd. */
void appendFramed(std::vector<std::uint8_t> &out,
                  const WireFrame &frame);

/**
 * Incremental frame reassembly for byte-stream transports: feed()
 * whatever arrived, then drain next() until it returns false.
 * A length prefix over kMaxFrameBytes poisons the reader (error()
 * becomes true and next() never yields again) — the connection must
 * be dropped, since stream framing cannot resynchronize.
 */
class FrameReader
{
  public:
    void feed(const std::uint8_t *data, std::size_t size);
    /** Copy the next whole frame into @p frame (overwritten, capacity
     *  kept, so a reused frame allocates nothing once warm).
     *  @return false, @p frame untouched, when no whole frame is
     *  buffered or the reader is poisoned. */
    bool next(WireFrame &frame);
    bool error() const { return _error; }

  private:
    std::vector<std::uint8_t> _buffer;
    std::size_t _consumed = 0;
    bool _error = false;
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_WIRE_HH
