/**
 * @file
 * Unit tests for the DejaVu cache as a controller sees it: one
 * RepositoryHandle on a SharedRepository (core/shared_repository.hh),
 * plus the repository CSV grammar (core/repository.hh).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/shared_repository.hh"

namespace dejavu {
namespace {

/** A repository with one attached controller, as DejaVuController
 *  owns it when no fleet shares its cache. */
struct PrivateRepo
{
    SharedRepository shared;
    RepositoryHandle repo = shared.attach(ServiceKind::Generic);
};

TEST(Repository, StoreAndLookup)
{
    PrivateRepo r;
    r.repo.store({0, 0}, {4, InstanceType::Large});
    const auto hit = r.repo.lookup({0, 0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, (ResourceAllocation{4, InstanceType::Large}));
}

TEST(Repository, MissOnUnknownKey)
{
    PrivateRepo r;
    EXPECT_FALSE(r.repo.lookup({7, 0}).has_value());
    EXPECT_EQ(r.repo.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(r.repo.hitRate(), 0.0);
}

TEST(Repository, InterferenceBucketsAreDistinctKeys)
{
    PrivateRepo r;
    r.repo.store({1, 0}, {3, InstanceType::Large});
    r.repo.store({1, 2}, {6, InstanceType::Large});
    EXPECT_EQ(r.repo.lookup({1, 0})->instances, 3);
    EXPECT_EQ(r.repo.lookup({1, 2})->instances, 6);
    EXPECT_FALSE(r.repo.lookup({1, 1}).has_value());
}

TEST(Repository, OverwriteUpdatesEntry)
{
    PrivateRepo r;
    r.repo.store({0, 0}, {2, InstanceType::Large});
    r.repo.store({0, 0}, {5, InstanceType::Large});
    EXPECT_EQ(r.repo.entries(), 1u);
    EXPECT_EQ(r.repo.lookup({0, 0})->instances, 5);
}

TEST(Repository, HitRateAccounting)
{
    PrivateRepo r;
    r.repo.store({0, 0}, {1, InstanceType::Large});
    (void)r.repo.lookup({0, 0});
    (void)r.repo.lookup({0, 0});
    (void)r.repo.lookup({9, 9});
    EXPECT_NEAR(r.repo.hitRate(), 2.0 / 3.0, 1e-12);
}

TEST(Repository, PeekDoesNotCount)
{
    PrivateRepo r;
    r.repo.store({0, 0}, {1, InstanceType::Large});
    (void)r.repo.peek({0, 0});
    (void)r.repo.peek({5, 5});
    EXPECT_EQ(r.repo.stats().lookups, 0u);
}

TEST(Repository, KeysSorted)
{
    PrivateRepo r;
    r.repo.store({2, 0}, {1, InstanceType::Large});
    r.repo.store({0, 1}, {1, InstanceType::Large});
    r.repo.store({0, 0}, {1, InstanceType::Large});
    const RepositorySnapshot snap =
        r.shared.snapshot(ServiceKind::Generic);
    const auto &entries = snap.all();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].key, (RepositoryKey{0, 0}));
    EXPECT_EQ(entries[1].key, (RepositoryKey{0, 1}));
    EXPECT_EQ(entries[2].key, (RepositoryKey{2, 0}));
}

TEST(Repository, ClearDropsEntriesKeepsStats)
{
    PrivateRepo r;
    r.repo.store({0, 0}, {1, InstanceType::Large});
    (void)r.repo.lookup({0, 0});
    r.repo.clear();
    EXPECT_EQ(r.repo.entries(), 0u);
    EXPECT_EQ(r.repo.stats().hits, 1u);  // history preserved
    EXPECT_FALSE(r.repo.peek({0, 0}).has_value());
}

TEST(Repository, ToStringListsEntries)
{
    PrivateRepo r;
    r.repo.store({1, 2}, {7, InstanceType::XLarge});
    const std::string s = r.repo.toString();
    EXPECT_NE(s.find("c1"), std::string::npos);
    EXPECT_NE(s.find("i2"), std::string::npos);
    EXPECT_NE(s.find("7xXL"), std::string::npos);
}

TEST(Repository, SaveLoadRoundTrip)
{
    PrivateRepo r;
    r.repo.store({0, 0}, {4, InstanceType::Large});
    r.repo.store({1, 2}, {10, InstanceType::XLarge});
    std::ostringstream out;
    r.shared.save(out);

    std::istringstream in(out.str());
    SharedRepository loaded = SharedRepository::load(in);
    EXPECT_EQ(loaded.entries(), 2u);
    const RepositorySnapshot snap = loaded.snapshot(ServiceKind::Generic);
    EXPECT_EQ(snap.find({0, 0}),
              (ResourceAllocation{4, InstanceType::Large}));
    EXPECT_EQ(snap.find({1, 2}),
              (ResourceAllocation{10, InstanceType::XLarge}));
    // Not persisted.
    EXPECT_EQ(loaded.attach(ServiceKind::Generic).stats().lookups, 0u);
}

TEST(Repository, LoadSkipsHeaderAndComments)
{
    std::istringstream in(
        "class,bucket,instances,type\n"
        "# cached allocations\n"
        "2,1,4,m1.large\n");
    const SharedRepository repo = SharedRepository::load(in);
    EXPECT_EQ(repo.entries(), 1u);
    EXPECT_EQ(repo.snapshot(ServiceKind::Generic).find({2, 1})->instances,
              4);
}

TEST(RepositoryDeathTest, LoadRejectsMalformedCells)
{
    std::istringstream bad("1,2,3\n");
    EXPECT_EXIT((void)SharedRepository::load(bad),
                ::testing::ExitedWithCode(1), "expected");
    std::istringstream nan("a,b,c,m1.large\n");
    EXPECT_EXIT((void)SharedRepository::load(nan),
                ::testing::ExitedWithCode(1), "unparsable");
    std::istringstream range("0,0,-2,m1.large\n");
    EXPECT_EXIT((void)SharedRepository::load(range),
                ::testing::ExitedWithCode(1), "out-of-range");
}

TEST(RepositoryDeathTest, LoadRejectsDuplicateRows)
{
    // A duplicate (class,bucket) row means a corrupted or badly merged
    // file; letting the last row win would hide it.
    const std::string dup =
        "class,bucket,instances,type\n"
        "0,0,4,m1.large\n"
        "1,0,6,m1.large\n"
        "0,0,8,m1.xlarge\n";
    std::istringstream in(dup);
    EXPECT_EXIT((void)SharedRepository::load(in),
                ::testing::ExitedWithCode(1), "duplicate");
}

} // namespace
} // namespace dejavu
