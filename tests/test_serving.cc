/**
 * @file
 * The serving-layer test suite (src/serving): wire-codec round trips
 * and malformed-frame rejection, FrameReader reassembly/poisoning,
 * and — the heart of it — the daemon-vs-sim conformance contract:
 * the dejavud serving path and the simulator's DejaVuController must
 * answer *bit-identical* allocations for the same sample stream, at
 * 1, 4 and 8 client threads, over the socket transport and across a
 * daemon restart (repository save()/load() round trip). Plus the
 * p99-budget fallback semantics, the admission gate, the socket
 * front-end's robustness against clients that misbehave, and how the
 * socket ends wait: a bounded poll that falls back to a blocking read.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "experiments/scenario.hh"
#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/server.hh"
#include "serving/socket.hh"
#include "serving/wire.hh"
#include "sim/cluster.hh"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dejavu {
namespace {

using namespace dejavu::serving;

// ================== wire codec ==================

/** @name Fresh-buffer Sample/Answer codec forms
 *  The library codes these frames only into caller-owned buffers;
 *  the value-style tests below go through these thin wrappers. @{ */
WireFrame
encodedSample(const SampleMsg &msg)
{
    WireFrame out;
    encodeSampleInto(out, msg.sessionId, msg.seq, msg.values);
    return out;
}

WireFrame
encodedAnswer(const AnswerMsg &msg)
{
    WireFrame out;
    encodeAnswerInto(out, msg);
    return out;
}

std::optional<SampleMsg>
decodedSample(const WireFrame &frame)
{
    SampleMsg msg;
    if (!decodeSampleInto(frame, msg))
        return std::nullopt;
    return msg;
}
/** @} */

TEST(ServingWire, HelloRoundTrip)
{
    HelloMsg msg;
    msg.kind = ServiceKind::Rubis;
    msg.fallback = {12, InstanceType::XLarge};
    msg.owner = "web-tier-7";
    const std::optional<HelloMsg> back = decodeHello(encodeHello(msg));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->kind, msg.kind);
    EXPECT_EQ(back->fallback, msg.fallback);
    EXPECT_EQ(back->owner, msg.owner);
}

TEST(ServingWire, SampleRoundTripIsBitExact)
{
    // The conformance digests hash raw certainty/metric bits, so the
    // codec must preserve every representable double exactly —
    // signed zero, denormals, NaN payloads included.
    SampleMsg msg;
    msg.sessionId = 0xdeadbeef;
    msg.seq = 41;
    msg.values = {0.0,
                  -0.0,
                  5e-324,  // Smallest denormal.
                  1.0 / 3.0,
                  std::numeric_limits<double>::quiet_NaN(),
                  std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::max()};
    const std::optional<SampleMsg> back =
        decodedSample(encodedSample(msg));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->sessionId, msg.sessionId);
    EXPECT_EQ(back->seq, msg.seq);
    ASSERT_EQ(back->values.size(), msg.values.size());
    for (std::size_t i = 0; i < msg.values.size(); ++i) {
        std::uint64_t a, b;
        std::memcpy(&a, &msg.values[i], sizeof a);
        std::memcpy(&b, &back->values[i], sizeof b);
        EXPECT_EQ(a, b) << "value " << i << " lost bits";
    }
}

TEST(ServingWire, AnswerBucketByeAckRoundTrip)
{
    AnswerMsg answer;
    answer.sessionId = 7;
    answer.seq = 99;
    answer.kind = 2;
    answer.flags = AnswerMsg::kBudgetBreached;
    answer.classId = -1;
    answer.certaintyBits = 0x3fe5555555555555ull;
    answer.bucketUsed = 3;
    answer.allocation = {6, InstanceType::Large};
    const std::optional<AnswerMsg> a =
        decodeAnswer(encodedAnswer(answer));
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->sessionId, answer.sessionId);
    EXPECT_EQ(a->seq, answer.seq);
    EXPECT_EQ(a->kind, answer.kind);
    EXPECT_EQ(a->flags, answer.flags);
    EXPECT_EQ(a->classId, answer.classId);
    EXPECT_EQ(a->certaintyBits, answer.certaintyBits);
    EXPECT_EQ(a->bucketUsed, answer.bucketUsed);
    EXPECT_EQ(a->allocation, answer.allocation);

    BucketMsg bucket{5, 2};
    const std::optional<BucketMsg> b =
        decodeBucket(encodeBucket(bucket));
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->sessionId, 5u);
    EXPECT_EQ(b->bucket, 2);

    ByeMsg bye{17};
    const std::optional<ByeMsg> y = decodeBye(encodeBye(bye));
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(y->sessionId, 17u);

    HelloAckMsg ack{HelloAckMsg::kRejected};
    const std::optional<HelloAckMsg> k =
        decodeHelloAck(encodeHelloAck(ack));
    ASSERT_TRUE(k.has_value());
    EXPECT_FALSE(k->accepted());
}

TEST(ServingWire, ScratchVariantsOverwriteDirtyBuffers)
{
    SampleMsg msg;
    msg.sessionId = 3;
    msg.seq = 8;
    for (int i = 0; i < 54; ++i)
        msg.values.push_back(0.5 * i - 3.0);

    // Dirty scratch buffers: the Into variants must fully overwrite.
    WireFrame scratch(100, 0xaa);
    encodeSampleInto(scratch, msg.sessionId, msg.seq, msg.values);
    EXPECT_EQ(scratch, encodedSample(msg));

    SampleMsg decoded;
    decoded.values.assign(200, -1.0);
    ASSERT_TRUE(decodeSampleInto(scratch, decoded));
    EXPECT_EQ(decoded.sessionId, msg.sessionId);
    EXPECT_EQ(decoded.seq, msg.seq);
    EXPECT_EQ(decoded.values, msg.values);

    AnswerMsg answer;
    answer.sessionId = 9;
    answer.seq = 1;
    answer.allocation = {4, InstanceType::Large};
    WireFrame answerScratch(64, 0xbb);
    encodeAnswerInto(answerScratch, answer);
    EXPECT_EQ(answerScratch, encodedAnswer(answer));
}

TEST(ServingWire, SampleAndAnswerBytesArePinned)
{
    // Literal frames: the round-trip tests above would pass a codec
    // that changed the byte order on both sides, these would not.
    // Every multi-byte field has distinct bytes, so a swapped or
    // shifted byte shows up.
    const auto doubleOf = [](std::uint64_t bits) {
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    };
    SampleMsg sample;
    sample.sessionId = 0x12345678;
    sample.seq = 0x9abcdef0;
    sample.values = {-0.0,
                     doubleOf(0x000fedcba9876543ull),  // Denormal.
                     doubleOf(0x7ffabcdef0123456ull),  // NaN payload.
                     doubleOf(0x0123456789abcdefull)};
    const WireFrame sampleBytes = {
        0x03,                                            // type
        0x78, 0x56, 0x34, 0x12,                          // session
        0xf0, 0xde, 0xbc, 0x9a,                          // seq
        0x04, 0x00,                                      // count
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
        0x43, 0x65, 0x87, 0xa9, 0xcb, 0xed, 0x0f, 0x00,
        0x56, 0x34, 0x12, 0xf0, 0xde, 0xbc, 0xfa, 0x7f,
        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
    EXPECT_EQ(encodedSample(sample), sampleBytes);
    SampleMsg decoded;
    ASSERT_TRUE(decodeSampleInto(sampleBytes, decoded));
    EXPECT_EQ(encodedSample(decoded), sampleBytes);

    AnswerMsg answer;
    answer.sessionId = 0x12345678;
    answer.seq = 0x9abcdef0;
    answer.kind = 2;
    answer.flags = AnswerMsg::kBudgetBreached;
    answer.classId = -2;
    answer.certaintyBits = 0xfff8123456789abcull;  // NaN payload.
    answer.bucketUsed = 0x0a0b0c0d;
    answer.allocation = {0x01020304, InstanceType::XLarge};
    const WireFrame answerBytes = {
        0x04,                                            // type
        0x78, 0x56, 0x34, 0x12,                          // session
        0xf0, 0xde, 0xbc, 0x9a,                          // seq
        0x02,                                            // kind
        0x01,                                            // flags
        0xfe, 0xff, 0xff, 0xff,                          // class
        0xbc, 0x9a, 0x78, 0x56, 0x34, 0x12, 0xf8, 0xff,  // certainty
        0x0d, 0x0c, 0x0b, 0x0a,                          // bucket
        0x04, 0x03, 0x02, 0x01,                          // instances
        0x02};                                           // type
    EXPECT_EQ(encodedAnswer(answer), answerBytes);
    WireFrame scratch(64, 0xcc);
    encodeAnswerInto(scratch, answer);
    EXPECT_EQ(scratch, answerBytes);
    const std::optional<AnswerMsg> back = decodeAnswer(answerBytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(encodedAnswer(*back), answerBytes);

    // The stream form prefixes the payload length, little-endian.
    std::vector<std::uint8_t> stream;
    appendFramed(stream, answerBytes);
    ASSERT_EQ(stream.size(), 4 + answerBytes.size());
    EXPECT_EQ(WireFrame(stream.begin(), stream.begin() + 4),
              (WireFrame{0x20, 0x00, 0x00, 0x00}));
}

TEST(ServingWire, DecodersRejectMalformedFrames)
{
    EXPECT_FALSE(frameType({}).has_value());
    EXPECT_FALSE(frameType({0}).has_value());
    EXPECT_FALSE(frameType({7}).has_value());  // Unknown type tag.

    // Out-of-range enum fields.
    HelloMsg hello;
    hello.kind = ServiceKind::KeyValue;
    WireFrame frame = encodeHello(hello);
    frame[1] = 200;  // kind byte
    EXPECT_FALSE(decodeHello(frame).has_value());

    AnswerMsg answer;
    frame = encodedAnswer(answer);
    frame[9] = 3;  // kind byte beyond lost-entry
    EXPECT_FALSE(decodeAnswer(frame).has_value());

    BucketMsg bucket{1, -2};
    EXPECT_FALSE(decodeBucket(encodeBucket(bucket)).has_value());

    // Every proper prefix of every message type must be rejected,
    // and so must one-byte overruns — decoders are total.
    SampleMsg sample;
    sample.sessionId = 1;
    sample.seq = 2;
    sample.values = {1.0, 2.0, 3.0};
    const std::vector<WireFrame> wholes = {
        encodeHello(hello), encodeHelloAck({1}),
        encodedSample(sample), encodedAnswer(answer),
        encodeBucket({1, 0}), encodeBye({1})};
    for (const WireFrame &whole : wholes) {
        for (std::size_t cut = 1; cut < whole.size(); ++cut) {
            const WireFrame part(whole.begin(),
                                 whole.begin()
                                     + static_cast<std::ptrdiff_t>(cut));
            EXPECT_FALSE(decodeHello(part).has_value());
            EXPECT_FALSE(decodeHelloAck(part).has_value());
            EXPECT_FALSE(decodedSample(part).has_value());
            EXPECT_FALSE(decodeAnswer(part).has_value());
            EXPECT_FALSE(decodeBucket(part).has_value());
            EXPECT_FALSE(decodeBye(part).has_value());
        }
        WireFrame fat = whole;
        fat.push_back(0);
        EXPECT_FALSE(decodeHello(fat).has_value());
        EXPECT_FALSE(decodeHelloAck(fat).has_value());
        EXPECT_FALSE(decodedSample(fat).has_value());
        EXPECT_FALSE(decodeAnswer(fat).has_value());
        EXPECT_FALSE(decodeBucket(fat).has_value());
        EXPECT_FALSE(decodeBye(fat).has_value());
    }
}

TEST(ServingWire, FrameReaderReassemblesSplitFrames)
{
    const WireFrame one = encodeBye({1});
    const WireFrame two = encodeHelloAck({42});
    std::vector<std::uint8_t> stream;
    appendFramed(stream, one);
    appendFramed(stream, two);

    // Feed the byte stream in awkward 3-byte slices.
    FrameReader reader;
    std::vector<WireFrame> frames;
    WireFrame frame;
    for (std::size_t off = 0; off < stream.size(); off += 3) {
        reader.feed(stream.data() + off,
                    std::min<std::size_t>(3, stream.size() - off));
        while (reader.next(frame))
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], one);
    EXPECT_EQ(frames[1], two);
    EXPECT_FALSE(reader.error());
}

TEST(ServingWire, FrameReaderPoisonsOnOversizedLength)
{
    std::vector<std::uint8_t> stream;
    const std::uint32_t evil = kMaxFrameBytes + 1;
    for (int i = 0; i < 4; ++i)
        stream.push_back(static_cast<std::uint8_t>(evil >> (8 * i)));
    FrameReader reader;
    reader.feed(stream.data(), stream.size());
    WireFrame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.error());

    // A poisoned reader never recovers, even on valid input.
    std::vector<std::uint8_t> good;
    appendFramed(good, encodeBye({1}));
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.error());
}

// ================== daemon-vs-sim conformance ==================

/** The bit-compared essence of one allocation answer. Daemon kinds
 *  unknown(1) and lost(2) both fold to 1, exactly as
 *  DejaVuController folds LostEntry into DecisionKind::
 *  UnknownWorkload. */
struct AnswerDigest
{
    int kind = 0;  ///< 0 = cache hit, 1 = full-capacity fallback.
    int classId = -1;
    std::uint64_t certaintyBits = 0;
    ResourceAllocation allocation;

    bool operator==(const AnswerDigest &o) const
    {
        return kind == o.kind && classId == o.classId
            && certaintyBits == o.certaintyBits
            && allocation == o.allocation;
    }
};

AnswerDigest
digestOf(const AnswerMsg &answer)
{
    AnswerDigest d;
    d.kind = answer.kind == 0 ? 0 : 1;
    d.classId = answer.classId;
    d.certaintyBits = answer.certaintyBits;
    d.allocation = answer.allocation;
    return d;
}

AnswerDigest
digestOf(const DejaVuController::Decision &decision)
{
    AnswerDigest d;
    d.kind = decision.kind
                == DejaVuController::DecisionKind::CacheHit
        ? 0 : 1;
    d.classId = decision.classId;
    std::memcpy(&d.certaintyBits, &decision.certainty,
                sizeof d.certaintyBits);
    d.allocation = decision.allocation;
    return d;
}

/** The learned stack every serving test shares. Built once: the
 *  bootstrap is the same construction path dejavud runs, and the
 *  sample streams are collected exactly once because collection
 *  consumes the member RNGs (bootstrap.hh). */
struct ServingWorld
{
    std::unique_ptr<ServingBootstrap> bootstrap;
    std::vector<ServiceKind> kinds;
    std::vector<std::vector<MetricSample>> samples;   ///< Per kind.
    std::vector<ResourceAllocation> fallbacks;        ///< Per kind.
    std::vector<std::vector<AnswerDigest>> simDigests;///< Per kind.
};

ServingWorld &
world()
{
    static ServingWorld *w = [] {
        auto *built = new ServingWorld;
        BootstrapOptions options;
        options.learnThreads = 2;
        built->bootstrap = makeServingBootstrap(options);
        for (auto &member : built->bootstrap->stack->members) {
            const ServiceKind kind = member->service->kind();
            built->kinds.push_back(kind);
            built->samples.push_back(
                built->bootstrap->collectSamples(kind, 48));
            built->fallbacks.push_back(
                member->cluster->maxAllocation());
        }
        // The sim half of the contract: the member controllers
        // answer the streams through decideFromSample — the same
        // kernel, driven the simulator's way.
        for (std::size_t k = 0; k < built->kinds.size(); ++k) {
            std::vector<AnswerDigest> digests;
            FleetMember &member =
                built->bootstrap->memberFor(built->kinds[k]);
            for (const MetricSample &sample : built->samples[k])
                digests.push_back(digestOf(
                    member.controller->decideFromSample(sample)));
            built->simDigests.push_back(std::move(digests));
        }
        return built;
    }();
    return *w;
}

/** Drive @p server with the world's streams over @p threads direct
 *  clients and return per-kind digests in sample order. Each thread
 *  owns one session per kind and answers the sample indices
 *  congruent to its id — a valid split because answers are
 *  per-sample (bucket stays 0 throughout; see session.hh). */
std::vector<std::vector<AnswerDigest>>
daemonDigests(ServingServer &server, int threads)
{
    ServingWorld &w = world();
    std::vector<std::vector<AnswerDigest>> result(w.kinds.size());
    for (std::size_t k = 0; k < w.kinds.size(); ++k)
        result[k].resize(w.samples[k].size());

    std::vector<int> failures(static_cast<std::size_t>(threads), 0);
    auto worker = [&](int th) {
        for (std::size_t k = 0; k < w.kinds.size(); ++k) {
            ServingClient client(server);
            if (!client.hello(w.kinds[k], w.fallbacks[k], "conform")) {
                ++failures[static_cast<std::size_t>(th)];
                return;
            }
            for (std::size_t i = static_cast<std::size_t>(th);
                 i < w.samples[k].size();
                 i += static_cast<std::size_t>(threads))
                result[k][i] =
                    digestOf(client.decide(w.samples[k][i].values));
            client.bye();
        }
    };
    std::vector<std::thread> pool;
    for (int th = 0; th < threads; ++th)
        pool.emplace_back(worker, th);
    for (auto &t : pool)
        t.join();
    for (int f : failures)
        EXPECT_EQ(f, 0) << "conformance session rejected";
    return result;
}

TEST(ServingConformance, DaemonMatchesSimAcrossClientThreadCounts)
{
    ServingWorld &w = world();
    for (int threads : {1, 4, 8}) {
        const auto daemon = daemonDigests(*w.bootstrap->server,
                                          threads);
        ASSERT_EQ(daemon.size(), w.simDigests.size());
        for (std::size_t k = 0; k < daemon.size(); ++k)
            EXPECT_EQ(daemon[k], w.simDigests[k])
                << "kind " << serviceKindName(w.kinds[k]) << " at "
                << threads << " client threads";
    }
    // The streams carried real decisions, not a vacuous all-fallback
    // run: the self-test expectation is (nearly) all cache hits.
    std::uint64_t hits = 0;
    for (const auto &digests : w.simDigests)
        for (const AnswerDigest &d : digests)
            hits += d.kind == 0 ? 1 : 0;
    EXPECT_GT(hits, 0u);
}

std::string
testSocketPath(const char *name)
{
    return ::testing::TempDir() + "dejavu-" + name + "-"
        + std::to_string(::getpid()) + ".sock";
}

TEST(ServingConformance, SocketTransportMatchesDirect)
{
    // The socket carries the same bytes to the same serve() on a
    // worker thread; answers must not change.
    ServingWorld &w = world();
    const std::string path = testSocketPath("conform");
    SocketServer socket(*w.bootstrap->server, path);
    ASSERT_TRUE(socket.start());
    SocketClient transport(path);
    ASSERT_TRUE(transport.connected());
    for (std::size_t k = 0; k < w.kinds.size(); ++k) {
        ServingClient client(transport);
        ASSERT_TRUE(client.hello(w.kinds[k], w.fallbacks[k],
                                 "socket-conform"));
        for (std::size_t i = 0; i < w.samples[k].size(); ++i)
            EXPECT_TRUE(digestOf(client.decide(w.samples[k][i].values))
                        == w.simDigests[k][i])
                << "kind " << serviceKindName(w.kinds[k])
                << " sample " << i << " diverged over the socket";
        client.bye();
    }
    transport.close();
    socket.stop();
}

TEST(ServingConformance, RestartReloadServesIdenticalAnswers)
{
    // The daemon restart story: persist the repository, reload it,
    // re-register the models — and every answer must be what it was
    // before the restart.
    ServingWorld &w = world();
    std::ostringstream persisted;
    w.bootstrap->repo->save(persisted);

    std::istringstream in(persisted.str());
    SharedRepository reloaded = SharedRepository::load(in);

    // The reloaded repository saves the same bytes.
    std::ostringstream again;
    reloaded.save(again);
    EXPECT_EQ(again.str(), persisted.str());

    ServingServer::Config config;
    config.budgetNanos = ServingServer::kNoBudget;
    ServingServer restarted(reloaded, config);
    for (auto &member : w.bootstrap->stack->members)
        restarted.registerModel(member->service->kind(),
                                member->controller->servingModel());
    const auto digests = daemonDigests(restarted, 4);
    for (std::size_t k = 0; k < digests.size(); ++k)
        EXPECT_EQ(digests[k], w.simDigests[k])
            << "kind " << serviceKindName(w.kinds[k])
            << " diverged across restart";
}

// ================== serving semantics ==================

TEST(ServingServer, BudgetZeroAlwaysFallsBackAndCounts)
{
    ServingWorld &w = world();
    ServingServer::Config config;
    config.budgetNanos = 0;  // Drill mode: every answer breaches.
    ServingServer server(*w.bootstrap->repo, config);
    for (auto &member : w.bootstrap->stack->members)
        server.registerModel(member->service->kind(),
                             member->controller->servingModel());

    ServingClient client(server);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "drill"));
    const int n = 16;
    for (int i = 0; i < n; ++i) {
        const AnswerMsg answer =
            client.decide(w.samples[0][static_cast<std::size_t>(i)]
                              .values);
        EXPECT_TRUE(answer.flags & AnswerMsg::kBudgetBreached);
        EXPECT_EQ(answer.allocation, w.fallbacks[0])
            << "a breached answer must serve the session fallback";
    }
    EXPECT_EQ(server.metrics().budgetBreaches.value(),
              static_cast<std::uint64_t>(n));
    // The breach replaces the *allocation*, never the accounting:
    // the answers still classified and were still served.
    EXPECT_EQ(server.metrics().samples.value(),
              static_cast<std::uint64_t>(n));
}

TEST(ServingServer, NoBudgetNeverBreaches)
{
    ServingWorld &w = world();
    const std::uint64_t before =
        w.bootstrap->server->metrics().budgetBreaches.value();
    ServingClient client(*w.bootstrap->server);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "nobudget"));
    for (int i = 0; i < 8; ++i) {
        const AnswerMsg answer =
            client.decide(w.samples[0][static_cast<std::size_t>(i)]
                              .values);
        EXPECT_FALSE(answer.flags & AnswerMsg::kBudgetBreached);
    }
    client.bye();
    EXPECT_EQ(w.bootstrap->server->metrics().budgetBreaches.value(),
              before);
}

TEST(ServingServer, AdmissionGateRejectsThenReadmitsAfterBye)
{
    ServingWorld &w = world();
    ServingServer::Config config;
    config.budgetNanos = ServingServer::kNoBudget;
    config.maxSessions = 1;
    ServingServer server(*w.bootstrap->repo, config);
    for (auto &member : w.bootstrap->stack->members)
        server.registerModel(member->service->kind(),
                             member->controller->servingModel());

    ServingClient first(server);
    ServingClient second(server);
    EXPECT_TRUE(first.hello(w.kinds[0], w.fallbacks[0], "one"));
    EXPECT_FALSE(second.hello(w.kinds[1], w.fallbacks[1], "two"));
    EXPECT_EQ(server.metrics().admissionRejects.value(), 1u);

    // Bye frees the slot; the rejected client can come back.
    first.bye();
    EXPECT_TRUE(second.hello(w.kinds[1], w.fallbacks[1], "two"));
    second.bye();
    EXPECT_EQ(server.metrics().sessionsOpened.value(), 2u);
    EXPECT_EQ(server.metrics().sessionsClosed.value(), 2u);
}

TEST(ServingServer, SessionIdsResolveAcrossIndexChunks)
{
    // The session index grows in chunks of 1024, 2048, 4096, ...
    // slots; ids on both sides of each boundary must resolve to their
    // own session, and ids past the last Hello or already closed must
    // not.
    ServingWorld &w = world();
    ServingServer::Config config;
    config.budgetNanos = ServingServer::kNoBudget;
    ServingServer server(*w.bootstrap->repo, config);
    for (auto &member : w.bootstrap->stack->members)
        server.registerModel(member->service->kind(),
                             member->controller->servingModel());

    constexpr std::uint32_t kSessions = 3100;
    std::vector<ServingClient> clients;
    clients.reserve(kSessions);
    for (std::uint32_t i = 0; i < kSessions; ++i) {
        clients.emplace_back(server);
        ASSERT_TRUE(clients.back().hello(w.kinds[0], w.fallbacks[0],
                                         "chunked"));
        ASSERT_EQ(clients.back().sessionId(), i);
    }
    EXPECT_EQ(server.totalSessions(), static_cast<int>(kSessions));
    for (const std::uint32_t id : {0u, 1023u, 1024u, 3071u, 3072u,
                                   kSessions - 1}) {
        const AnswerMsg answer =
            clients[id].decide(w.samples[0][0].values);
        EXPECT_EQ(answer.sessionId, id);
        EXPECT_TRUE(digestOf(answer) == w.simDigests[0][0])
            << "session " << id;
    }
    EXPECT_EQ(server.metrics().wireErrors.value(), 0u);

    clients[1024].bye();
    const std::uint64_t errors = server.metrics().wireErrors.value();
    WireFrame reply;
    EXPECT_FALSE(
        server.serve(encodedSample({1024, 0, {1.0}}), 0, reply));
    EXPECT_FALSE(
        server.serve(encodedSample({kSessions, 0, {1.0}}), 0, reply));
    EXPECT_TRUE(reply.empty());
    EXPECT_EQ(server.metrics().wireErrors.value(), errors + 2);
}

TEST(ServingServer, MalformedFramesAreCountedNeverFatal)
{
    ServingWorld &w = world();
    ServingServer::Config config;
    config.budgetNanos = ServingServer::kNoBudget;
    ServingServer server(*w.bootstrap->repo, config);
    for (auto &member : w.bootstrap->stack->members)
        server.registerModel(member->service->kind(),
                             member->controller->servingModel());

    const WireFrame garbage[] = {
        {},                      // Empty payload.
        {9, 1, 2, 3},            // Unknown type tag.
        {static_cast<std::uint8_t>(MsgType::Sample), 1},  // Truncated.
        encodeHelloAck({3}),     // Client-bound type sent serverward.
        encodedAnswer({}),        // Likewise.
        encodedSample({12345, 0, {1.0}}),  // Session never opened.
        encodeBye({54321}),      // Likewise.
    };
    std::uint64_t expected = 0;
    WireFrame reply(8, 0xdd);
    for (const WireFrame &frame : garbage) {
        EXPECT_FALSE(server.serve(frame, 0, reply));
        EXPECT_TRUE(reply.empty());
        ++expected;
        EXPECT_EQ(server.metrics().wireErrors.value(), expected);
    }

    // The daemon still serves honest clients afterwards.
    ServingClient client(server);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "honest"));
    const AnswerMsg answer = client.decide(w.samples[0][0].values);
    EXPECT_TRUE(digestOf(answer) == w.simDigests[0][0]);
    client.bye();
}

TEST(ServingServer, BucketedEntryServesBucketLookups)
{
    // The §3.6 path over the wire: publish a bucket, store a
    // (class, bucket) entry, and the very next lookup must walk it —
    // which also exercises the RCU snapshot refresh, since the store
    // moves the repository version under a live session.
    ServingWorld &w = world();
    ServingClient client(*w.bootstrap->server);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "bucketed"));

    // Find a sample this model answers with a cache hit.
    int hitIndex = -1;
    AnswerMsg base;
    for (std::size_t i = 0; i < w.samples[0].size(); ++i) {
        base = client.decide(w.samples[0][i].values);
        if (base.kind == 0) {
            hitIndex = static_cast<int>(i);
            break;
        }
    }
    ASSERT_GE(hitIndex, 0) << "no cache-hit sample in the stream";
    EXPECT_EQ(base.bucketUsed, 0);

    const ResourceAllocation bumped{9, InstanceType::XLarge};
    RepositoryHandle handle = w.bootstrap->repo->attach(w.kinds[0]);
    handle.store({base.classId, 2}, bumped);

    const std::uint64_t updatesBefore =
        w.bootstrap->server->metrics().bucketUpdates.value();
    client.publishBucket(2);
    const AnswerMsg adjusted = client.decide(
        w.samples[0][static_cast<std::size_t>(hitIndex)].values);
    EXPECT_EQ(adjusted.kind, 0);
    EXPECT_EQ(adjusted.bucketUsed, 2);
    EXPECT_EQ(adjusted.allocation, bumped);

    // Episode over: back to bucket 0, the baseline entry serves.
    client.publishBucket(0);
    const AnswerMsg baseline = client.decide(
        w.samples[0][static_cast<std::size_t>(hitIndex)].values);
    EXPECT_EQ(baseline.bucketUsed, 0);
    EXPECT_EQ(baseline.allocation, base.allocation);
    EXPECT_EQ(w.bootstrap->server->metrics().bucketUpdates.value(),
              updatesBefore + 2);
    client.bye();
}

// ================== socket transport ==================

/** A fresh server on the shared learned world (own metrics and
 *  admission gate). */
std::unique_ptr<ServingServer>
freshServer(int maxSessions)
{
    ServingWorld &w = world();
    ServingServer::Config config;
    config.budgetNanos = ServingServer::kNoBudget;
    config.maxSessions = maxSessions;
    auto server = std::make_unique<ServingServer>(*w.bootstrap->repo,
                                                  config);
    for (auto &member : w.bootstrap->stack->members)
        server->registerModel(member->service->kind(),
                              member->controller->servingModel());
    return server;
}

/** Poll @p cond for up to ~5 s (socket workers run asynchronously). */
template <typename Cond>
bool
eventually(Cond cond)
{
    for (int i = 0; i < 5000 && !cond(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return cond();
}

/** Open descriptors of this process whose socket is bound to
 *  @p path — the server side of accepted connections. */
std::vector<int>
acceptedFds(const std::string &path)
{
    std::vector<int> fds;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        const int fd = std::stoi(entry.path().filename().string());
        sockaddr_un addr{};
        socklen_t len = sizeof addr;
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                          &len) == 0
            && addr.sun_family == AF_UNIX
            && len > offsetof(sockaddr_un, sun_path)
            && path == addr.sun_path)
            fds.push_back(fd);
    }
    return fds;
}

bool
fdOpen(int fd)
{
    return ::fcntl(fd, F_GETFD) != -1;
}

/** The AF_UNIX address of @p path. */
sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/** A raw stream connected to @p path; -1 on failure. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const sockaddr_un addr = unixAddress(path);
    if (fd >= 0
        && ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr)
            != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Writes all of @p size bytes at @p data to @p fd. */
bool
sendBytes(int fd, const std::uint8_t *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Reads @p fd through @p reader until @p frame holds a whole frame;
 *  false on EOF or error. */
bool
readFrame(int fd, FrameReader &reader, WireFrame &frame)
{
    while (!reader.next(frame)) {
        std::uint8_t buffer[256];
        const ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n <= 0)
            return false;
        reader.feed(buffer, static_cast<std::size_t>(n));
    }
    return true;
}

TEST(ServingSocket, StopLeavesRecycledDescriptorNumbersAlone)
{
    // A worker closes its connection's fd when the client leaves; the
    // number can then be reused by an unrelated descriptor, which
    // stop() must not shut down.
    if (!std::filesystem::exists("/proc/self/fd"))
        GTEST_SKIP() << "needs /proc/self/fd";
    ServingWorld &w = world();
    auto server = freshServer(4);
    const std::string path = testSocketPath("recycle");
    // The listener's accept() reserves the lowest free descriptor
    // number before it blocks, and dup2 onto a reserved number fails
    // with EBUSY for as long as that accept() waits. Should the
    // listener come back to accept() only after the worker closed its
    // fd, it would reserve that very number. A free number below it
    // (this hole, opened before the listener and closed while the
    // connection is still open) is the one it reserves instead.
    const int hole = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(hole, 0);
    SocketServer socket(*server, path);
    ASSERT_TRUE(socket.start());

    const std::vector<int> listening = acceptedFds(path);
    int accepted = -1;
    {
        SocketClient transport(path);
        ASSERT_TRUE(transport.connected());
        ServingClient client(transport);
        ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "gone"));
        for (int fd : acceptedFds(path))
            if (std::find(listening.begin(), listening.end(), fd)
                == listening.end())
                accepted = fd;
        ASSERT_GT(accepted, hole);
        ::close(hole);
        client.bye();
    }
    ASSERT_TRUE(eventually([&] { return !fdOpen(accepted); }));

    // An unrelated socketpair now owns the worker's old fd number
    // (socketpair() may already have picked it for either end).
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    if (pair[1] == accepted)
        std::swap(pair[0], pair[1]);
    if (pair[0] != accepted) {
        const int dup = ::dup2(pair[0], accepted);
        const int error = errno;
        ASSERT_EQ(dup, accepted) << "dup2 failed: errno " << error
                                 << " (" << std::strerror(error) << ")";
        ::close(pair[0]);
    }

    socket.stop();
    const char byte = 'x';
    EXPECT_EQ(::send(pair[1], &byte, 1, MSG_NOSIGNAL), 1);
    char got = 0;
    EXPECT_EQ(::recv(accepted, &got, 1, MSG_DONTWAIT), 1);
    EXPECT_EQ(got, byte);
    ::close(accepted);
    ::close(pair[1]);
}

TEST(ServingSocket, DisconnectWithoutByeReleasesSessions)
{
    // Clients that say Hello and then drop the connection without Bye
    // must not keep their admission slots: the connection closes the
    // sessions it still holds, counting no wire errors.
    ServingWorld &w = world();
    constexpr int kMaxSessions = 2;
    auto server = freshServer(kMaxSessions);
    const std::string path = testSocketPath("byeless");
    SocketServer socket(*server, path);
    ASSERT_TRUE(socket.start());
    const auto openSessions = [&] {
        return server->metrics().sessionsOpened.value()
            - server->metrics().sessionsClosed.value();
    };

    SocketClient liveTransport(path);
    ServingClient live(liveTransport);
    ASSERT_TRUE(live.hello(w.kinds[0], w.fallbacks[0], "live"));
    for (int i = 0; i < 4 * kMaxSessions; ++i) {
        SocketClient transport(path);
        ServingClient client(transport);
        // Admitted every time: the previous dropped client's slot
        // came back.
        ASSERT_TRUE(client.hello(w.kinds[1], w.fallbacks[1], "drop"))
            << "iteration " << i;
        EXPECT_EQ(openSessions(), 2u);
        transport.close();
        ASSERT_TRUE(eventually([&] { return openSessions() == 1u; }))
            << "iteration " << i;
    }
    live.bye();
    EXPECT_TRUE(eventually([&] { return openSessions() == 0u; }));
    socket.stop();
    EXPECT_EQ(server->metrics().sessionsOpened.value(),
              static_cast<std::uint64_t>(1 + 4 * kMaxSessions));
    EXPECT_EQ(server->metrics().wireErrors.value(), 0u);
}

TEST(ServingSocket, PeerHangingUpBeforeItsRepliesLeavesTheDaemonUp)
{
    // A client that writes requests and hangs up without reading the
    // replies makes the worker's reply write fail with EPIPE. That
    // must end the connection and close its sessions, not raise
    // SIGPIPE, whose default action kills the whole daemon.
    ServingWorld &w = world();
    auto server = freshServer(1);
    const std::string path = testSocketPath("hangup");
    SocketServer socket(*server, path);
    ASSERT_TRUE(socket.start());

    HelloMsg hello;
    hello.kind = w.kinds[0];
    hello.fallback = w.fallbacks[0];
    hello.owner = "hangup";
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 3000; ++i)
        appendFramed(stream, encodeHello(hello));

    const int fd = rawConnect(path);
    ASSERT_GE(fd, 0);
    // Hang up the receiving side before sending, so the daemon's very
    // first reply meets a peer that is gone, however the threads run.
    ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
    for (std::size_t sent = 0; sent < stream.size();) {
        // Fails with EPIPE once the daemon has dropped the connection.
        const ssize_t n = ::send(fd, stream.data() + sent,
                                 stream.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    ::close(fd);

    // The connection ends and releases the one admission slot.
    ASSERT_TRUE(eventually([&] {
        const std::uint64_t opened =
            server->metrics().sessionsOpened.value();
        return opened >= 1
            && opened == server->metrics().sessionsClosed.value();
    }));

    SocketClient transport(path);
    ServingClient client(transport);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "after"));
    EXPECT_TRUE(digestOf(client.decide(w.samples[0][0].values))
                == w.simDigests[0][0]);
    client.bye();
    transport.close();
    socket.stop();
    EXPECT_EQ(server->metrics().wireErrors.value(), 0u);
}

TEST(ServingSocket, IdleConnectionsStopPolling)
{
    // A worker polls for the next request for one bounded window at
    // most: connections that go quiet must sleep, not spin. Four
    // workers polling without end would burn about four cores' worth
    // of CPU time over the silence.
    ServingWorld &w = world();
    constexpr int kConnections = 4;
    auto server = freshServer(kConnections);
    const std::string path = testSocketPath("idle");
    SocketServer socket(*server, path);
    ASSERT_TRUE(socket.start());
    std::vector<std::unique_ptr<SocketClient>> transports;
    std::vector<ServingClient> clients;
    clients.reserve(kConnections);
    for (int c = 0; c < kConnections; ++c) {
        transports.push_back(std::make_unique<SocketClient>(path));
        clients.emplace_back(*transports.back());
        ASSERT_TRUE(clients.back().hello(w.kinds[0], w.fallbacks[0],
                                         "idle"));
    }

    const std::clock_t cpuStart = std::clock();
    const auto wallStart = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const double cpuSec =
        static_cast<double>(std::clock() - cpuStart) / CLOCKS_PER_SEC;
    const double wallSec = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - wallStart).count();
    EXPECT_LT(cpuSec, 0.25 * wallSec)
        << "idle connections used " << cpuSec << " s of CPU in "
        << wallSec << " s";

    for (ServingClient &client : clients)
        client.bye();
    for (auto &transport : transports)
        transport->close();
    socket.stop();
}

TEST(ServingSocket, RequestSplitAcrossAPauseIsAnsweredLikeDirect)
{
    // A worker polls for a request only briefly, if at all, then
    // blocks in read(): a Sample whose second half arrives 20 ms
    // after its first must reach serve() whole, and be answered as a
    // direct call answers it.
    ServingWorld &w = world();
    auto server = freshServer(2);
    const std::string path = testSocketPath("split-request");
    SocketServer socket(*server, path);
    ASSERT_TRUE(socket.start());
    const int fd = rawConnect(path);
    ASSERT_GE(fd, 0);

    HelloMsg hello;
    hello.kind = w.kinds[0];
    hello.fallback = w.fallbacks[0];
    hello.owner = "split";
    std::vector<std::uint8_t> stream;
    appendFramed(stream, encodeHello(hello));
    ASSERT_TRUE(sendBytes(fd, stream.data(), stream.size()));
    FrameReader reader;
    WireFrame frame;
    ASSERT_TRUE(readFrame(fd, reader, frame));
    const std::optional<HelloAckMsg> ack = decodeHelloAck(frame);
    ASSERT_TRUE(ack.has_value() && ack->accepted());

    const std::vector<double> &values = w.samples[0][0].values;
    WireFrame sample;
    encodeSampleInto(sample, ack->sessionId, 7, values);
    stream.clear();
    appendFramed(stream, sample);
    const std::size_t half = stream.size() / 2;
    ASSERT_TRUE(sendBytes(fd, stream.data(), half));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(sendBytes(fd, stream.data() + half,
                          stream.size() - half));
    ASSERT_TRUE(readFrame(fd, reader, frame));
    const std::optional<AnswerMsg> answer = decodeAnswer(frame);
    ASSERT_TRUE(answer.has_value());

    // Byte for byte the answer a direct client gets, but for the
    // session id and sequence number it echoes.
    ServingClient direct(*server);
    ASSERT_TRUE(direct.hello(w.kinds[0], w.fallbacks[0], "direct"));
    AnswerMsg expected = direct.decide(values);
    direct.bye();
    expected.sessionId = ack->sessionId;
    expected.seq = 7;
    WireFrame expectedFrame;
    encodeAnswerInto(expectedFrame, expected);
    EXPECT_EQ(frame, expectedFrame);
    EXPECT_TRUE(digestOf(*answer) == w.simDigests[0][0]);

    ::close(fd);
    socket.stop();
    EXPECT_EQ(server->metrics().wireErrors.value(), 0u);
}

TEST(ServingSocket, ReplySplitAcrossAPauseReachesTheClient)
{
    // SocketClient polls for its reply only briefly, then blocks in
    // read(): a reply whose second half arrives 20 ms after its first
    // must come out whole, and the peer's hang-up must end the
    // connection.
    const std::string path = testSocketPath("split-reply");
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    ::unlink(path.c_str());
    const sockaddr_un addr = unixAddress(path);
    ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    SocketClient transport(path);
    ASSERT_TRUE(transport.connected());
    const int peer = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    ::unlink(path.c_str());
    ASSERT_GE(peer, 0);

    AnswerMsg answer;
    answer.sessionId = 3;
    answer.seq = 9;
    answer.classId = 2;
    answer.certaintyBits = 0x3fe8000000000000ull;
    answer.bucketUsed = 1;
    answer.allocation = {4, InstanceType::Large};
    WireFrame sent;
    encodeAnswerInto(sent, answer);
    std::vector<std::uint8_t> stream;
    appendFramed(stream, sent);
    const std::size_t half = stream.size() / 2;
    bool wrote = false;
    std::thread replier([&] {
        wrote = sendBytes(peer, stream.data(), half);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        wrote = wrote
            && sendBytes(peer, stream.data() + half,
                         stream.size() - half);
    });
    WireFrame received;
    const bool got = transport.receive(received);
    replier.join();
    EXPECT_TRUE(wrote);
    ASSERT_TRUE(got);
    EXPECT_EQ(received, sent);

    ::close(peer);
    EXPECT_FALSE(transport.receive(received));
    EXPECT_FALSE(transport.connected());
}

TEST(ServingSocket, FinishedWorkersAreReaped)
{
    // Each connection gets its own worker thread. Once the connection
    // ends, the worker must be joined (at the next accept), not held
    // for the daemon's lifetime. Exited threads vanish from
    // /proc/self/task even when nobody joins them, so the server's
    // own count is the observable.
    ServingWorld &w = world();
    auto server = freshServer(4);
    const std::string path = testSocketPath("reap");
    SocketServer socket(*server, path);
    ASSERT_TRUE(socket.start());

    constexpr int kConnections = 64;
    for (int i = 0; i < kConnections; ++i) {
        SocketClient transport(path);
        ServingClient client(transport);
        ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "brief"))
            << "iteration " << i;
        client.bye();
        transport.close();
        ASSERT_TRUE(eventually([&] {
            return socket.openConnections() == 0;
        })) << "iteration " << i;
    }

    // One more connection: its accept reaps every finished worker,
    // and its Hello round trip proves the accept has happened.
    SocketClient transport(path);
    ServingClient client(transport);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "last"));
    EXPECT_EQ(socket.openConnections(), 1u);
    EXPECT_LE(socket.workerThreads(), socket.openConnections());
    client.bye();
    transport.close();
    socket.stop();
    EXPECT_EQ(socket.workerThreads(), 0u);
}

} // namespace
} // namespace dejavu
