/**
 * @file
 * Unit tests for the worker pool and the fan-out built on it
 * (common/parallel.hh) and the concurrency contracts documented on
 * SeriesArena (common/arena.hh). The multi-threaded cases here are
 * deliberately racy-looking workloads — they are the ones the
 * ThreadSanitizer CI leg runs to prove the contracts hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/parallel.hh"

namespace dejavu {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (const int threads : {0, 1, 2, 8}) {
        constexpr std::size_t kN = 103;
        std::vector<std::atomic<int>> hits(kN);
        parallelFor(kN, threads, [&hits](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " at " << threads << " threads";
    }
}

TEST(ParallelFor, ZeroItemsIsANoOp)
{
    std::atomic<int> calls{0};
    parallelFor(0, 8, [&calls](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, PerIndexSlotsMatchSequentialAtAnyThreadCount)
{
    constexpr std::size_t kN = 64;
    std::vector<double> sequential(kN);
    for (std::size_t i = 0; i < kN; ++i)
        sequential[i] = static_cast<double>(i * i) + 0.5;

    for (const int threads : {1, 3, 8}) {
        std::vector<double> got(kN);
        parallelFor(kN, threads, [&got](std::size_t i) {
            got[i] = static_cast<double>(i * i) + 0.5;
        });
        EXPECT_EQ(got, sequential) << threads << " threads";
    }
}

TEST(WorkerPool, RunsEachShareOnItsOwnWorker)
{
    WorkerPool pool(4);
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_EQ(pool.workers(), std::min(4, hw));
    for (int shares = 1; shares <= pool.workers(); ++shares) {
        std::vector<std::thread::id> ranOn(
            static_cast<std::size_t>(shares));
        pool.run(shares, [&ranOn](int s) {
            ranOn[static_cast<std::size_t>(s)] =
                std::this_thread::get_id();
        });
        EXPECT_EQ(pool.lastRunWorkers(), shares);
        EXPECT_EQ(ranOn[0], std::this_thread::get_id())
            << "share 0 runs on the calling thread";
        std::sort(ranOn.begin(), ranOn.end());
        EXPECT_EQ(std::adjacent_find(ranOn.begin(), ranOn.end()),
                  ranOn.end())
            << "two shares ran on one worker";
    }
}

TEST(WorkerPool, NeverStartsMoreWorkersThanHardwareThreads)
{
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_EQ(WorkerPool(hw + 3).workers(), hw);
    EXPECT_EQ(WorkerPool(0).workers(), 1);
}

TEST(WorkerPool, MemberLocalRunsFlagEveryWorker)
{
    WorkerPool pool(4);
    std::vector<int> flagged(static_cast<std::size_t>(pool.workers()));
    pool.run(pool.workers(), [&flagged](int s) {
        flagged[static_cast<std::size_t>(s)] = inMemberLocalScope();
    }, /*memberLocal=*/true);
    for (int f : flagged)
        EXPECT_EQ(f, 1);
    EXPECT_FALSE(inMemberLocalScope()) << "the caller's flag leaked";
    pool.run(pool.workers(), [&flagged](int s) {
        flagged[static_cast<std::size_t>(s)] = inMemberLocalScope();
    });
    for (int f : flagged)
        EXPECT_EQ(f, 0);
}

TEST(WorkerPool, WakesWorkersThatBlockedBetweenRuns)
{
    // Runs back to back find the workers polling; a pause longer than
    // the poll window finds them blocked. Both must run every share.
    WorkerPool pool(4);
    std::atomic<int> total{0};
    for (int run = 0; run < 200; ++run) {
        if (run % 50 == 49)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        pool.run(pool.workers(), [&total](int) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 200 * pool.workers());
}

TEST(SeriesArena, AppendAndReadBack)
{
    SeriesArena arena;
    const auto a = arena.newStream();
    const auto b = arena.newStream();
    EXPECT_EQ(arena.streams(), 2u);

    // Cross two chunk boundaries to cover the chunk-growth path.
    const std::size_t n = SeriesArena::kChunkPoints * 2 + 7;
    for (std::size_t i = 0; i < n; ++i)
        arena.append(a, static_cast<double>(i), 2.0 * i);
    arena.append(b, 1.0, -1.0);

    EXPECT_EQ(arena.size(a), n);
    EXPECT_EQ(arena.size(b), 1u);
    EXPECT_EQ(arena.totalPoints(), n + 1);

    std::size_t i = 0;
    arena.forEach(a, [&i](const SeriesArena::Point &p) {
        EXPECT_DOUBLE_EQ(p.t, static_cast<double>(i));
        EXPECT_DOUBLE_EQ(p.v, 2.0 * i);
        ++i;
    });
    EXPECT_EQ(i, n);

    // 3 chunks for stream a, 1 for stream b.
    EXPECT_EQ(arena.bytesAllocated(),
              4 * SeriesArena::kChunkPoints *
                  sizeof(SeriesArena::Point));
}

TEST(SeriesArena, ConcurrentAppendsToDistinctStreams)
{
    // The documented contract: once streams exist, appends to
    // *distinct* streams share no arena state. Hammer it from a full
    // pool; TSan (CI sanitize matrix) flags any regression that
    // reintroduces cross-stream writes.
    constexpr std::size_t kStreams = 16;
    constexpr std::size_t kPerStream =
        SeriesArena::kChunkPoints * 3 + 11;

    SeriesArena arena;
    arena.reserveStreams(kStreams);
    std::vector<SeriesArena::StreamId> ids;
    ids.reserve(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s)
        ids.push_back(arena.newStream());

    parallelFor(kStreams, 8, [&arena, &ids](std::size_t s) {
        for (std::size_t i = 0; i < kPerStream; ++i)
            arena.append(ids[s], static_cast<double>(i),
                         static_cast<double>(s * 1000 + i));
    });

    EXPECT_EQ(arena.totalPoints(), kStreams * kPerStream);
    for (std::size_t s = 0; s < kStreams; ++s) {
        ASSERT_EQ(arena.size(ids[s]), kPerStream);
        std::size_t i = 0;
        arena.forEach(ids[s], [&](const SeriesArena::Point &p) {
            ASSERT_DOUBLE_EQ(p.t, static_cast<double>(i));
            ASSERT_DOUBLE_EQ(p.v, static_cast<double>(s * 1000 + i));
            ++i;
        });
    }
}

TEST(FlatMatrix, AssignAndIndex)
{
    FlatMatrix m;
    EXPECT_TRUE(m.empty());
    m.assign({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);
    m.row(1)[0] = -3.0;
    EXPECT_DOUBLE_EQ(m.at(1, 0), -3.0);
}

} // namespace
} // namespace dejavu
