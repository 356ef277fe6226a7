/**
 * @file
 * The serving-layer test suite (src/serving): wire-codec round trips
 * and malformed-frame rejection, FrameReader reassembly/poisoning,
 * and — the heart of it — the daemon-vs-sim conformance contract:
 * the dejavud serving path and the simulator's DejaVuController must
 * answer *bit-identical* allocations for the same sample stream, at
 * 1, 4 and 8 client threads, across transports and across a daemon
 * restart (repository save()/load() round trip). Plus the p99-budget
 * fallback semantics, the admission gate and the proxy's
 * bucket-forwarding serving link.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "experiments/scenario.hh"
#include "proxy/proxy.hh"
#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/server.hh"
#include "serving/socket.hh"
#include "serving/transport.hh"
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
        decodeSample(encodeSample(msg));
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
        decodeAnswer(encodeAnswer(answer));
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

TEST(ServingWire, ScratchVariantsMatchAllocatingForms)
{
    SampleMsg msg;
    msg.sessionId = 3;
    msg.seq = 8;
    for (int i = 0; i < 54; ++i)
        msg.values.push_back(0.5 * i - 3.0);

    // Dirty scratch buffers: the Into variants must fully overwrite.
    WireFrame scratch(100, 0xaa);
    encodeSampleInto(scratch, msg.sessionId, msg.seq, msg.values);
    EXPECT_EQ(scratch, encodeSample(msg));

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
    EXPECT_EQ(answerScratch, encodeAnswer(answer));
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
    frame = encodeAnswer(answer);
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
        encodeSample(sample), encodeAnswer(answer),
        encodeBucket({1, 0}), encodeBye({1})};
    for (const WireFrame &whole : wholes) {
        for (std::size_t cut = 1; cut < whole.size(); ++cut) {
            const WireFrame part(whole.begin(),
                                 whole.begin()
                                     + static_cast<std::ptrdiff_t>(cut));
            EXPECT_FALSE(decodeHello(part).has_value());
            EXPECT_FALSE(decodeHelloAck(part).has_value());
            EXPECT_FALSE(decodeSample(part).has_value());
            EXPECT_FALSE(decodeAnswer(part).has_value());
            EXPECT_FALSE(decodeBucket(part).has_value());
            EXPECT_FALSE(decodeBye(part).has_value());
        }
        WireFrame fat = whole;
        fat.push_back(0);
        EXPECT_FALSE(decodeHello(fat).has_value());
        EXPECT_FALSE(decodeHelloAck(fat).has_value());
        EXPECT_FALSE(decodeSample(fat).has_value());
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
    for (std::size_t off = 0; off < stream.size(); off += 3) {
        reader.feed(stream.data() + off,
                    std::min<std::size_t>(3, stream.size() - off));
        while (std::optional<WireFrame> frame = reader.next())
            frames.push_back(std::move(*frame));
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
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.error());

    // A poisoned reader never recovers, even on valid input.
    std::vector<std::uint8_t> good;
    appendFramed(good, encodeBye({1}));
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next().has_value());
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

TEST(ServingConformance, BusTransportMatchesDirect)
{
    // The bus hands the same bytes to the same serve() on another
    // thread; answers must not change.
    ServingWorld &w = world();
    ServingBus bus(*w.bootstrap->server);
    ServingBus::Connection &conn = bus.connect();
    for (std::size_t k = 0; k < w.kinds.size(); ++k) {
        ServingClient client(conn);
        ASSERT_TRUE(
            client.hello(w.kinds[k], w.fallbacks[k], "bus-conform"));
        for (std::size_t i = 0; i < w.samples[k].size(); ++i)
            EXPECT_TRUE(digestOf(client.decide(w.samples[k][i].values))
                        == w.simDigests[k][i])
                << "kind " << serviceKindName(w.kinds[k])
                << " sample " << i << " diverged over the bus";
        client.bye();
    }
    bus.stop();
}

TEST(ServingConformance, RestartReloadServesIdenticalAnswers)
{
    // The daemon restart story: persist the repository, reload it
    // (here at a different shard count), re-register the models —
    // and every answer must be what it was before the restart.
    ServingWorld &w = world();
    std::ostringstream persisted;
    w.bootstrap->repo->save(persisted);

    std::istringstream in(persisted.str());
    SharedRepository reloaded = SharedRepository::load(
        in, SharedRepository::Mode::Shared, ServiceKind::Generic,
        /*shards=*/8);

    // save() bytes are shard-count independent — reload and compare.
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
    EXPECT_EQ(server.metrics().budgetBreaches.load(),
              static_cast<std::uint64_t>(n));
    // The breach replaces the *allocation*, never the accounting:
    // the answers still classified and were still served.
    EXPECT_EQ(server.metrics().samples.load(),
              static_cast<std::uint64_t>(n));
}

TEST(ServingServer, NoBudgetNeverBreaches)
{
    ServingWorld &w = world();
    const std::uint64_t before =
        w.bootstrap->server->metrics().budgetBreaches.load();
    ServingClient client(*w.bootstrap->server);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "nobudget"));
    for (int i = 0; i < 8; ++i) {
        const AnswerMsg answer =
            client.decide(w.samples[0][static_cast<std::size_t>(i)]
                              .values);
        EXPECT_FALSE(answer.flags & AnswerMsg::kBudgetBreached);
    }
    client.bye();
    EXPECT_EQ(w.bootstrap->server->metrics().budgetBreaches.load(),
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
    EXPECT_EQ(server.metrics().admissionRejects.load(), 1u);

    // Bye frees the slot; the rejected client can come back.
    first.bye();
    EXPECT_TRUE(second.hello(w.kinds[1], w.fallbacks[1], "two"));
    second.bye();
    EXPECT_EQ(server.metrics().sessionsOpened.load(), 2u);
    EXPECT_EQ(server.metrics().sessionsClosed.load(), 2u);
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
        encodeAnswer({}),        // Likewise.
        encodeSample({12345, 0, {1.0}}),  // Session never opened.
        encodeBye({54321}),      // Likewise.
    };
    std::uint64_t expected = 0;
    for (const WireFrame &frame : garbage) {
        EXPECT_FALSE(server.serve(frame, 0).has_value());
        ++expected;
        EXPECT_EQ(server.metrics().wireErrors.load(), expected);
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
    RepositoryHandle handle =
        w.bootstrap->repo->attach(w.kinds[0], "interference-tuner");
    handle.store({base.classId, 2}, bumped);
    w.bootstrap->repo->detach(handle);

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
    client.bye();
}

TEST(ServingProxy, BucketTransitionsForwardToAttachedSession)
{
    ServingWorld &w = world();
    ServingClient client(*w.bootstrap->server);
    ASSERT_TRUE(client.hello(w.kinds[0], w.fallbacks[0], "proxy"));
    const std::uint64_t before =
        w.bootstrap->server->metrics().bucketUpdates.load();

    DejaVuProxy proxy(Rng(21));
    proxy.setInterferenceBucket(3);  // No link yet: not forwarded.
    EXPECT_EQ(proxy.stats().servingBucketPublishes, 0u);

    // Attach pushes the in-flight bucket so the daemon session is
    // never behind an ongoing episode.
    proxy.attachServingLink(&client);
    EXPECT_EQ(proxy.stats().servingBucketPublishes, 1u);
    proxy.setInterferenceBucket(1);
    EXPECT_EQ(proxy.stats().servingBucketPublishes, 2u);
    EXPECT_EQ(w.bootstrap->server->metrics().bucketUpdates.load(),
              before + 2);

    // Detached: transitions stay local again.
    proxy.attachServingLink(nullptr);
    proxy.setInterferenceBucket(0);
    EXPECT_EQ(proxy.stats().servingBucketPublishes, 2u);
    EXPECT_EQ(w.bootstrap->server->metrics().bucketUpdates.load(),
              before + 2);
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

std::string
testSocketPath(const char *name)
{
    return ::testing::TempDir() + "dejavu-" + name + "-"
        + std::to_string(::getpid()) + ".sock";
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
        return server->metrics().sessionsOpened.load()
            - server->metrics().sessionsClosed.load();
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
    EXPECT_EQ(server->metrics().sessionsOpened.load(),
              static_cast<std::uint64_t>(1 + 4 * kMaxSessions));
    EXPECT_EQ(server->metrics().wireErrors.load(), 0u);
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
