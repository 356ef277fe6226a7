#include "serving/wire.hh"

#include <algorithm>

namespace dejavu {
namespace serving {

namespace {

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
put64(WireFrame &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
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
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{p[i]} << (8 * i);
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
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{p[i]} << (8 * i);
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
    // Bulk raw-pointer writes: a sample carries ~54 doubles and the
    // lookup loop runs millions of frames a second — per-byte
    // push_back would dominate the whole serve cost.
    const std::size_t n = std::min<std::size_t>(values.size(), 0xffff);
    out.resize(1 + 4 + 4 + 2 + 8 * n);
    std::uint8_t *p = out.data();
    *p++ = static_cast<std::uint8_t>(MsgType::Sample);
    for (int i = 0; i < 4; ++i)
        *p++ = static_cast<std::uint8_t>(sessionId >> (8 * i));
    for (int i = 0; i < 4; ++i)
        *p++ = static_cast<std::uint8_t>(seq >> (8 * i));
    *p++ = static_cast<std::uint8_t>(n);
    *p++ = static_cast<std::uint8_t>(n >> 8);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits;
        std::memcpy(&bits, &values[i], sizeof bits);
        for (int b = 0; b < 8; ++b)
            p[b] = static_cast<std::uint8_t>(bits >> (8 * b));
        p += 8;
    }
}

WireFrame
encodeSample(const SampleMsg &msg)
{
    WireFrame out;
    encodeSampleInto(out, msg.sessionId, msg.seq, msg.values);
    return out;
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
    // raw-pointer reads (same hot-path rationale as
    // encodeSampleInto).
    msg.values.resize(n);
    const std::uint8_t *p = c.p;
    for (std::uint16_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        for (int b = 0; b < 8; ++b)
            bits |= std::uint64_t{p[b]} << (8 * b);
        std::memcpy(&msg.values[i], &bits, sizeof bits);
        p += 8;
    }
    return true;
}

std::optional<SampleMsg>
decodeSample(const WireFrame &frame)
{
    SampleMsg msg;
    if (!decodeSampleInto(frame, msg))
        return std::nullopt;
    return msg;
}

void
encodeAnswerInto(WireFrame &out, const AnswerMsg &msg)
{
    out.clear();
    put8(out, static_cast<std::uint8_t>(MsgType::Answer));
    put32(out, msg.sessionId);
    put32(out, msg.seq);
    put8(out, msg.kind);
    put8(out, msg.flags);
    putI32(out, msg.classId);
    put64(out, msg.certaintyBits);
    putI32(out, msg.bucketUsed);
    putI32(out, msg.allocation.instances);
    put8(out, static_cast<std::uint8_t>(msg.allocation.type));
}

WireFrame
encodeAnswer(const AnswerMsg &msg)
{
    WireFrame out;
    encodeAnswerInto(out, msg);
    return out;
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

std::optional<WireFrame>
FrameReader::next()
{
    if (_error)
        return std::nullopt;
    const std::size_t avail = _buffer.size() - _consumed;
    if (avail < 4)
        return std::nullopt;
    const std::uint8_t *p = _buffer.data() + _consumed;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= std::uint32_t{p[i]} << (8 * i);
    if (len > kMaxFrameBytes) {
        _error = true;  // Stream framing cannot recover; drop peer.
        return std::nullopt;
    }
    if (avail < 4 + std::size_t{len})
        return std::nullopt;
    WireFrame frame(p + 4, p + 4 + len);
    _consumed += 4 + std::size_t{len};
    return frame;
}

} // namespace serving
} // namespace dejavu
