#include "serving/wire.hh"

#include <algorithm>

namespace dejavu {
namespace serving {

namespace {

// --- little-endian words ------------------------------------------
//
// Byte stores and loads at constant offsets with constant shifts: the
// result is the same on any host byte order, and gcc and clang merge
// each helper into a single word move on little-endian hosts. (A
// shift loop over a variable offset is not merged, and every byte
// store through it may alias the caller's source array.) `inline`
// matters: gcc -O2 sizes a helper before merging its bytes, and
// without the keyword it calls loadLe64 out of line per value.

inline void
storeLe32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
    p[4] = static_cast<std::uint8_t>(v >> 32);
    p[5] = static_cast<std::uint8_t>(v >> 40);
    p[6] = static_cast<std::uint8_t>(v >> 48);
    p[7] = static_cast<std::uint8_t>(v >> 56);
}

inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8)
        | (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    return std::uint64_t{p[0]} | (std::uint64_t{p[1]} << 8)
        | (std::uint64_t{p[2]} << 16) | (std::uint64_t{p[3]} << 24)
        | (std::uint64_t{p[4]} << 32) | (std::uint64_t{p[5]} << 40)
        | (std::uint64_t{p[6]} << 48) | (std::uint64_t{p[7]} << 56);
}

// --- encode helpers: explicit little-endian byte writes ------------

void
put8(WireFrame &out, std::uint8_t v)
{
    out.push_back(v);
}

void
put16(WireFrame &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
put32(WireFrame &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putI32(WireFrame &out, std::int32_t v)
{
    put32(out, static_cast<std::uint32_t>(v));
}

// --- decode helpers: bounds-checked cursor -------------------------

struct Cursor
{
    const std::uint8_t *p;
    std::size_t left;
    bool ok = true;

    explicit Cursor(const WireFrame &f) : p(f.data()), left(f.size())
    {
    }

    std::uint8_t get8()
    {
        if (left < 1) {
            ok = false;
            return 0;
        }
        --left;
        return *p++;
    }

    std::uint16_t get16()
    {
        if (left < 2) {
            ok = false;
            return 0;
        }
        std::uint16_t v = static_cast<std::uint16_t>(
            p[0] | (std::uint16_t{p[1]} << 8));
        p += 2;
        left -= 2;
        return v;
    }

    std::uint32_t get32()
    {
        if (left < 4) {
            ok = false;
            return 0;
        }
        const std::uint32_t v = loadLe32(p);
        p += 4;
        left -= 4;
        return v;
    }

    std::uint64_t get64()
    {
        if (left < 8) {
            ok = false;
            return 0;
        }
        const std::uint64_t v = loadLe64(p);
        p += 8;
        left -= 8;
        return v;
    }

    std::int32_t getI32()
    {
        return static_cast<std::int32_t>(get32());
    }

    double getF64()
    {
        std::uint64_t bits = get64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    /** Whole payload consumed without underflow. */
    bool done() const { return ok && left == 0; }
};

constexpr std::uint8_t kMaxServiceKind =
    static_cast<std::uint8_t>(ServiceKind::Ycsb);
constexpr std::uint8_t kMaxInstanceType =
    static_cast<std::uint8_t>(InstanceType::XLarge);

bool
typeIs(const WireFrame &frame, MsgType type)
{
    return !frame.empty()
        && frame.front() == static_cast<std::uint8_t>(type);
}

} // namespace

std::optional<MsgType>
frameType(const WireFrame &frame)
{
    if (frame.empty())
        return std::nullopt;
    const std::uint8_t t = frame.front();
    if (t < static_cast<std::uint8_t>(MsgType::Hello)
        || t > static_cast<std::uint8_t>(MsgType::Bye))
        return std::nullopt;
    return static_cast<MsgType>(t);
}

WireFrame
encodeHello(const HelloMsg &msg)
{
    WireFrame out;
    put8(out, static_cast<std::uint8_t>(MsgType::Hello));
    put8(out, static_cast<std::uint8_t>(msg.kind));
    putI32(out, msg.fallback.instances);
    put8(out, static_cast<std::uint8_t>(msg.fallback.type));
    const std::size_t n =
        std::min<std::size_t>(msg.owner.size(), 0xffff);
    put16(out, static_cast<std::uint16_t>(n));
    out.insert(out.end(), msg.owner.begin(), msg.owner.begin() + n);
    return out;
}

std::optional<HelloMsg>
decodeHello(const WireFrame &frame)
{
    if (!typeIs(frame, MsgType::Hello))
        return std::nullopt;
    Cursor c(frame);
    c.get8();  // type
    HelloMsg msg;
    const std::uint8_t kind = c.get8();
    msg.fallback.instances = c.getI32();
    const std::uint8_t itype = c.get8();
    const std::uint16_t ownerLen = c.get16();
    if (!c.ok || c.left != ownerLen)
        return std::nullopt;
    if (kind > kMaxServiceKind || itype > kMaxInstanceType
        || msg.fallback.instances < 0)
        return std::nullopt;
    msg.kind = static_cast<ServiceKind>(kind);
    msg.fallback.type = static_cast<InstanceType>(itype);
    msg.owner.assign(reinterpret_cast<const char *>(c.p), ownerLen);
    return msg;
}

WireFrame
encodeHelloAck(const HelloAckMsg &msg)
{
    WireFrame out;
    put8(out, static_cast<std::uint8_t>(MsgType::HelloAck));
    put32(out, msg.sessionId);
    return out;
}

std::optional<HelloAckMsg>
decodeHelloAck(const WireFrame &frame)
{
    if (!typeIs(frame, MsgType::HelloAck))
        return std::nullopt;
    Cursor c(frame);
    c.get8();
    HelloAckMsg msg;
    msg.sessionId = c.get32();
    if (!c.done())
        return std::nullopt;
    return msg;
}

void
encodeSampleInto(WireFrame &out, std::uint32_t sessionId,
                 std::uint32_t seq, const std::vector<double> &values)
{
    // Raw-pointer word writes into a frame sized once: a sample
    // carries ~54 doubles and the lookup loop runs millions of frames
    // a second, so per-byte push_back or per-byte shift loops would
    // dominate the whole serve cost.
    const std::size_t n = std::min<std::size_t>(values.size(), 0xffff);
    out.resize(1 + 4 + 4 + 2 + 8 * n);
    std::uint8_t *p = out.data();
    p[0] = static_cast<std::uint8_t>(MsgType::Sample);
    storeLe32(p + 1, sessionId);
    storeLe32(p + 5, seq);
    p[9] = static_cast<std::uint8_t>(n);
    p[10] = static_cast<std::uint8_t>(n >> 8);
    p += 11;
    const double *v = values.data();
    for (std::size_t i = 0; i < n; ++i, p += 8) {
        std::uint64_t bits;
        std::memcpy(&bits, v + i, sizeof bits);
        storeLe64(p, bits);
    }
}

bool
decodeSampleInto(const WireFrame &frame, SampleMsg &msg)
{
    if (!typeIs(frame, MsgType::Sample))
        return false;
    Cursor c(frame);
    c.get8();
    msg.sessionId = c.get32();
    msg.seq = c.get32();
    const std::uint16_t n = c.get16();
    if (!c.ok || c.left != std::size_t{n} * 8)
        return false;
    // Bounds are fully established above; decode the payload with
    // raw-pointer word reads (same hot-path rationale as
    // encodeSampleInto).
    msg.values.resize(n);
    const std::uint8_t *p = c.p;
    double *v = msg.values.data();
    for (std::size_t i = 0; i < n; ++i, p += 8) {
        const std::uint64_t bits = loadLe64(p);
        std::memcpy(v + i, &bits, sizeof bits);
    }
    return true;
}

void
encodeAnswerInto(WireFrame &out, const AnswerMsg &msg)
{
    // Fixed 32-byte layout, written at constant offsets into a frame
    // sized once (the hot-path twin of decodeAnswer's field order).
    out.resize(32);
    std::uint8_t *p = out.data();
    p[0] = static_cast<std::uint8_t>(MsgType::Answer);
    storeLe32(p + 1, msg.sessionId);
    storeLe32(p + 5, msg.seq);
    p[9] = msg.kind;
    p[10] = msg.flags;
    storeLe32(p + 11, static_cast<std::uint32_t>(msg.classId));
    storeLe64(p + 15, msg.certaintyBits);
    storeLe32(p + 23, static_cast<std::uint32_t>(msg.bucketUsed));
    storeLe32(p + 27,
              static_cast<std::uint32_t>(msg.allocation.instances));
    p[31] = static_cast<std::uint8_t>(msg.allocation.type);
}

std::optional<AnswerMsg>
decodeAnswer(const WireFrame &frame)
{
    if (!typeIs(frame, MsgType::Answer))
        return std::nullopt;
    Cursor c(frame);
    c.get8();
    AnswerMsg msg;
    msg.sessionId = c.get32();
    msg.seq = c.get32();
    msg.kind = c.get8();
    msg.flags = c.get8();
    msg.classId = c.getI32();
    msg.certaintyBits = c.get64();
    msg.bucketUsed = c.getI32();
    msg.allocation.instances = c.getI32();
    const std::uint8_t itype = c.get8();
    if (!c.done() || msg.kind > 2 || itype > kMaxInstanceType)
        return std::nullopt;
    msg.allocation.type = static_cast<InstanceType>(itype);
    return msg;
}

WireFrame
encodeBucket(const BucketMsg &msg)
{
    WireFrame out;
    put8(out, static_cast<std::uint8_t>(MsgType::Bucket));
    put32(out, msg.sessionId);
    putI32(out, msg.bucket);
    return out;
}

std::optional<BucketMsg>
decodeBucket(const WireFrame &frame)
{
    if (!typeIs(frame, MsgType::Bucket))
        return std::nullopt;
    Cursor c(frame);
    c.get8();
    BucketMsg msg;
    msg.sessionId = c.get32();
    msg.bucket = c.getI32();
    if (!c.done() || msg.bucket < 0)
        return std::nullopt;
    return msg;
}

WireFrame
encodeBye(const ByeMsg &msg)
{
    WireFrame out;
    put8(out, static_cast<std::uint8_t>(MsgType::Bye));
    put32(out, msg.sessionId);
    return out;
}

std::optional<ByeMsg>
decodeBye(const WireFrame &frame)
{
    if (!typeIs(frame, MsgType::Bye))
        return std::nullopt;
    Cursor c(frame);
    c.get8();
    ByeMsg msg;
    msg.sessionId = c.get32();
    if (!c.done())
        return std::nullopt;
    return msg;
}

void
appendFramed(std::vector<std::uint8_t> &out, const WireFrame &frame)
{
    put32(out, static_cast<std::uint32_t>(frame.size()));
    out.insert(out.end(), frame.begin(), frame.end());
}

void
FrameReader::feed(const std::uint8_t *data, std::size_t size)
{
    if (_error)
        return;
    // Drop consumed bytes occasionally to keep the buffer bounded.
    if (_consumed > 0 && _consumed >= _buffer.size() / 2) {
        _buffer.erase(_buffer.begin(),
                      _buffer.begin()
                          + static_cast<std::ptrdiff_t>(_consumed));
        _consumed = 0;
    }
    _buffer.insert(_buffer.end(), data, data + size);
}

bool
FrameReader::next(WireFrame &frame)
{
    if (_error)
        return false;
    const std::size_t avail = _buffer.size() - _consumed;
    if (avail < 4)
        return false;
    const std::uint8_t *p = _buffer.data() + _consumed;
    const std::uint32_t len = loadLe32(p);
    if (len > kMaxFrameBytes) {
        _error = true;  // Stream framing cannot recover; drop peer.
        return false;
    }
    if (avail < 4 + std::size_t{len})
        return false;
    frame.assign(p + 4, p + 4 + len);
    _consumed += 4 + std::size_t{len};
    return true;
}

} // namespace serving
} // namespace dejavu
