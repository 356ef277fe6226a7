/**
 * @file
 * The split monitor drain allocates nothing in its observe phase, on
 * any worker: a drain sizes its buffers on the run thread before the
 * split, and a tick's member-local work (sample, policy observe,
 * recorder aggregates) reuses what exists. A worker thread that
 * allocated would also grow a malloc arena of its own, which a fleet's
 * peak RSS would pay.
 *
 * Like test_socket_alloc, this binary replaces the global operator
 * new with a counter, so it stays out of every other test binary. It
 * counts only what a thread allocates while it runs member-local work
 * (inMemberLocalScope()) — the drains' observe phase.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "experiments/scenario.hh"

namespace {

std::atomic<long> memberLocalAllocations{0};

void *
counted(std::size_t size)
{
    if (dejavu::inMemberLocalScope())
        memberLocalAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return counted(size); }
void *operator new[](std::size_t size) { return counted(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace dejavu {
namespace {

/** A learned 96-member mixed fleet on one shared repository, its
 *  drains on four workers. */
std::unique_ptr<FleetStack>
fleet(bool recordSeries)
{
    ScenarioOptions options;
    options.seed = 42;
    options.days = 2;
    FleetBuilder builder(options);
    builder.profilingHosts(2)
        .shareRepository(RepositorySharing::Shared)
        .recordSeries(recordSeries)
        .add(ServiceKind::KeyValue, 32)
        .add(ServiceKind::SpecWeb, 32)
        .add(ServiceKind::Rubis, 32);
    auto stack = builder.build();
    stack->learnAll(4);
    return stack;
}

TEST(DrainAlloc, ObservePhaseAllocatesNothingOnAnyWorker)
{
    setLogLevel(LogLevel::Silent);
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "one hardware thread: drains never split";

    auto stack = fleet(/*recordSeries=*/false);
    memberLocalAllocations.store(0);
    stack->experiment->run();
    EXPECT_GT(stack->experiment->sampler()->peakDrainWorkers(), 1)
        << "no drain split across the pool's workers";
    EXPECT_GT(stack->experiment->sampler()->samplesTaken(), 100000u);
    EXPECT_EQ(memberLocalAllocations.load(), 0)
        << "the observe phase allocated";
}

TEST(DrainAlloc, CounterSeesObservePhaseAllocations)
{
    // The control: with series on, a recorder's arena takes a chunk
    // every 256 points of a stream, inside the observe phase.
    setLogLevel(LogLevel::Silent);
    auto stack = fleet(/*recordSeries=*/true);
    memberLocalAllocations.store(0);
    stack->experiment->run();
    EXPECT_GT(memberLocalAllocations.load(), 0);
}

} // namespace
} // namespace dejavu
