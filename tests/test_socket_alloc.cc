/**
 * @file
 * A warm socket round trip allocates nothing, on either end.
 *
 * This binary replaces the global operator new with one that counts
 * every call. The client and the daemon's connection worker both run
 * in this process, so one counter sees the allocations of both ends
 * of the AF_UNIX transport: client encode and send, the worker's
 * frame reassembly, serve() and its reply, and the client's receive
 * and decode.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/socket.hh"
#include "sim/cluster.hh"

#include <unistd.h>

namespace {

std::atomic<std::uint64_t> gAllocations{0};

} // namespace

// The replacements are kept out of line: inlined, gcc pairs a
// caller's operator new with the free() inside operator delete and
// warns (-Wmismatched-new-delete), though both go through malloc.

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dejavu {
namespace {

using namespace dejavu::serving;

TEST(SocketAlloc, WarmRoundTripsAllocateNothing)
{
    BootstrapOptions options;
    options.learnThreads = 1;
    const auto bootstrap = makeServingBootstrap(options);
    FleetMember &member = *bootstrap->stack->members.front();
    const ServiceKind kind = member.service->kind();
    const std::vector<MetricSample> samples =
        bootstrap->collectSamples(kind, 16);
    const std::string path = ::testing::TempDir() + "dejavu-alloc-"
        + std::to_string(::getpid()) + ".sock";
    SocketServer socket(*bootstrap->server, path);
    ASSERT_TRUE(socket.start());
    SocketClient transport(path);
    ASSERT_TRUE(transport.connected());
    ServingClient client(transport);
    ASSERT_TRUE(client.hello(kind, member.cluster->maxAllocation(),
                             "alloc"));

    // Warm-up: every frame, reader buffer and classifier scratch on
    // both ends reaches its steady capacity.
    for (std::size_t i = 0; i < 100; ++i)
        (void)client.decide(samples[i % samples.size()].values);

    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < 1000; ++i)
        hits += client.decide(samples[i % samples.size()].values).kind
            == 0;
    const std::uint64_t allocations =
        gAllocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocations, 0u)
        << "1000 warm socket round trips allocated " << allocations
        << " times";
    // The round trips made real decisions, not only fallbacks.
    EXPECT_GT(hits, 0u);

    client.bye();
    transport.close();
    socket.stop();
}

} // namespace
} // namespace dejavu
