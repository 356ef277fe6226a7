/**
 * @file
 * Unit tests for the shared cross-service repository
 * (core/shared_repository.hh): attachment lifecycle, per-kind
 * namespace isolation, per-attachment/aggregate statistics, the
 * write-through isolation A/B mode, and persistence with the kind
 * column (including the legacy 4-column format).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/parallel.hh"
#include "core/shared_repository.hh"

namespace dejavu {
namespace {

const ResourceAllocation kFourLarge{4, InstanceType::Large};
const ResourceAllocation kSixLarge{6, InstanceType::Large};
const ResourceAllocation kTenXL{10, InstanceType::XLarge};

TEST(SharedRepository, StoreAndLookupThroughHandle)
{
    SharedRepository repo;
    RepositoryHandle h = repo.attach(ServiceKind::KeyValue, "svc-A");
    ASSERT_TRUE(h.attached());
    EXPECT_EQ(h.kind(), ServiceKind::KeyValue);
    EXPECT_EQ(h.owner(), "svc-A");

    h.store({0, 0}, kFourLarge);
    const auto hit = h.lookup({0, 0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, kFourLarge);
    EXPECT_FALSE(h.lookup({1, 0}).has_value());

    EXPECT_EQ(h.stats().stores, 1u);
    EXPECT_EQ(h.stats().lookups, 2u);
    EXPECT_EQ(h.stats().hits, 1u);
    EXPECT_EQ(h.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(h.hitRate(), 0.5);
    // A single attachment can only hit its own writes.
    EXPECT_EQ(h.crossHits(), 0u);
}

TEST(SharedRepository, KindNamespaceIsolation)
{
    // The per-kind compatibility rule: a RUBiS-tuned allocation must
    // never serve a KeyValue lookup, even for identical keys.
    SharedRepository repo;
    RepositoryHandle rubis = repo.attach(ServiceKind::Rubis, "rubis");
    RepositoryHandle kv = repo.attach(ServiceKind::KeyValue, "kv");

    rubis.store({0, 0}, kTenXL);
    EXPECT_FALSE(kv.lookup({0, 0}).has_value());
    EXPECT_FALSE(kv.contains({0, 0}));
    EXPECT_EQ(kv.entries(), 0u);
    ASSERT_TRUE(rubis.lookup({0, 0}).has_value());

    kv.store({0, 0}, kFourLarge);
    // Same key, both namespaces populated: each kind sees its own.
    EXPECT_EQ(*kv.lookup({0, 0}), kFourLarge);
    EXPECT_EQ(*rubis.lookup({0, 0}), kTenXL);
    EXPECT_EQ(repo.entries(ServiceKind::Rubis), 1u);
    EXPECT_EQ(repo.entries(ServiceKind::KeyValue), 1u);
    EXPECT_EQ(repo.entries(), 2u);
}

TEST(SharedRepository, CrossServiceHitsCountTunerRunsAvoided)
{
    SharedRepository repo;
    RepositoryHandle a = repo.attach(ServiceKind::KeyValue, "svc-A");
    RepositoryHandle b = repo.attach(ServiceKind::KeyValue, "svc-B");

    a.store({2, 1}, kSixLarge);
    // B's hit was served by A's write: one tuner run avoided.
    ASSERT_TRUE(b.lookup({2, 1}).has_value());
    EXPECT_EQ(b.stats().hits, 1u);
    EXPECT_EQ(b.crossHits(), 1u);
    EXPECT_EQ(b.reusedEntries(), 1u);
    // A's own hit is neither a cross hit nor a reuse.
    ASSERT_TRUE(a.lookup({2, 1}).has_value());
    EXPECT_EQ(a.crossHits(), 0u);
    EXPECT_EQ(a.reusedEntries(), 0u);
    // Re-reading the same peer entry is another cross hit but NOT
    // another avoided tuner run: reused counts distinct keys.
    ASSERT_TRUE(b.lookup({2, 1}).has_value());
    EXPECT_EQ(b.crossHits(), 2u);
    EXPECT_EQ(b.reusedEntries(), 1u);
    EXPECT_EQ(repo.aggregateCrossHits(), 2u);
    EXPECT_EQ(repo.aggregateReusedEntries(), 1u);
}

TEST(SharedRepository, ConcurrentAttachmentsKeepIndependentStats)
{
    // Several attachments live at once: every attachment accounts
    // its own traffic, the aggregate is the exact sum, and attach
    // order assigns dense ids.
    SharedRepository repo;
    RepositoryHandle h0 = repo.attach(ServiceKind::KeyValue, "s0");
    RepositoryHandle h1 = repo.attach(ServiceKind::KeyValue, "s1");
    RepositoryHandle h2 = repo.attach(ServiceKind::SpecWeb, "s2");
    EXPECT_EQ(h0.id(), 0);
    EXPECT_EQ(h1.id(), 1);
    EXPECT_EQ(h2.id(), 2);
    EXPECT_EQ(repo.attachments(), 3);

    h0.store({0, 0}, kFourLarge);
    (void)h0.lookup({0, 0});  // hit (own)
    (void)h1.lookup({0, 0});  // hit (cross)
    (void)h1.lookup({9, 0});  // miss
    (void)h2.lookup({0, 0});  // miss (other kind)
    h2.store({0, 0}, kTenXL);

    EXPECT_EQ(h0.stats().lookups, 1u);
    EXPECT_EQ(h0.stats().hits, 1u);
    EXPECT_EQ(h1.stats().lookups, 2u);
    EXPECT_EQ(h1.stats().hits, 1u);
    EXPECT_EQ(h1.stats().misses, 1u);
    EXPECT_EQ(h1.crossHits(), 1u);
    EXPECT_EQ(h2.stats().misses, 1u);

    const RepositoryStats total = repo.aggregateStats();
    EXPECT_EQ(total.lookups, 4u);
    EXPECT_EQ(total.hits, 2u);
    EXPECT_EQ(total.misses, 2u);
    EXPECT_EQ(total.stores, 2u);
    EXPECT_DOUBLE_EQ(repo.hitRate(), 0.5);
}

TEST(SharedRepository, ClearDropsOnlyOwnWrites)
{
    SharedRepository repo;
    RepositoryHandle a = repo.attach(ServiceKind::KeyValue, "svc-A");
    RepositoryHandle b = repo.attach(ServiceKind::KeyValue, "svc-B");

    a.store({0, 0}, kFourLarge);
    b.store({1, 0}, kSixLarge);
    EXPECT_EQ(a.entries(), 2u);  // shared view

    a.clear();
    // A's write is gone; B's survives for both.
    EXPECT_FALSE(a.contains({0, 0}));
    EXPECT_TRUE(a.contains({1, 0}));
    EXPECT_TRUE(b.contains({1, 0}));
    EXPECT_EQ(repo.entries(ServiceKind::KeyValue), 1u);
}

TEST(SharedRepository, SaveLoadRoundTripWithKindColumn)
{
    SharedRepository repo;
    RepositoryHandle kv = repo.attach(ServiceKind::KeyValue, "kv");
    RepositoryHandle web = repo.attach(ServiceKind::SpecWeb, "web");
    kv.store({0, 0}, kFourLarge);
    kv.store({1, 2}, kSixLarge);
    web.store({0, 0}, kTenXL);

    std::ostringstream out;
    repo.save(out);
    EXPECT_NE(out.str().find("kind,class,bucket,instances,type"),
              std::string::npos);
    EXPECT_NE(out.str().find("keyvalue,1,2,6,m1.large"),
              std::string::npos);
    EXPECT_NE(out.str().find("specweb,0,0,10,m1.xlarge"),
              std::string::npos);

    std::istringstream in(out.str());
    SharedRepository loaded = SharedRepository::load(in);
    EXPECT_EQ(loaded.entries(), 3u);
    EXPECT_EQ(*loaded.peek(ServiceKind::KeyValue, {1, 2}), kSixLarge);
    EXPECT_EQ(*loaded.peek(ServiceKind::SpecWeb, {0, 0}), kTenXL);
    EXPECT_FALSE(
        loaded.peek(ServiceKind::Rubis, {0, 0}).has_value());

    // Loaded entries have no writer: a fresh attachment's hits on
    // them count as cross-service reuse.
    RepositoryHandle h = loaded.attach(ServiceKind::KeyValue, "new");
    ASSERT_TRUE(h.lookup({0, 0}).has_value());
    EXPECT_EQ(h.crossHits(), 1u);
}

TEST(SharedRepository, LegacyFourColumnLoadStillWorks)
{
    // Per-controller CSVs from before the kind column: rows are
    // filed under the caller's legacy kind.
    const std::string legacy =
        "class,bucket,instances,type\n"
        "0,0,4,m1.large\n"
        "1,2,10,m1.xlarge\n";
    std::istringstream in(legacy);
    SharedRepository loaded = SharedRepository::load(
        in, SharedRepository::Mode::Shared, ServiceKind::Rubis);
    EXPECT_EQ(loaded.entries(), 2u);
    EXPECT_EQ(*loaded.peek(ServiceKind::Rubis, {0, 0}), kFourLarge);
    EXPECT_EQ(*loaded.peek(ServiceKind::Rubis, {1, 2}), kTenXL);
    EXPECT_EQ(loaded.entries(ServiceKind::KeyValue), 0u);
}

TEST(SharedRepositoryDeathTest, LoadRejectsDuplicateRows)
{
    const std::string dup =
        "kind,class,bucket,instances,type\n"
        "keyvalue,0,0,4,m1.large\n"
        "keyvalue,0,0,6,m1.large\n";
    std::istringstream in(dup);
    EXPECT_EXIT((void)SharedRepository::load(in),
                ::testing::ExitedWithCode(1), "duplicate");
}

TEST(SharedRepositoryDeathTest, LoadRejectsMalformedRows)
{
    std::istringstream in("keyvalue,0,0\n");
    EXPECT_EXIT((void)SharedRepository::load(in),
                ::testing::ExitedWithCode(1), "expected");
    std::istringstream bad("noSuchKind,0,0,4,m1.large\n");
    EXPECT_EXIT((void)SharedRepository::load(bad),
                ::testing::ExitedWithCode(1), "kind");
}

TEST(SharedRepository, DetachKeepsEntriesAndAggregateStats)
{
    SharedRepository repo;
    RepositoryHandle a = repo.attach(ServiceKind::KeyValue, "a");
    RepositoryHandle b = repo.attach(ServiceKind::KeyValue, "b");
    a.store({0, 0}, kFourLarge);
    (void)a.lookup({0, 0});

    repo.detach(a);
    EXPECT_FALSE(a.attached());
    EXPECT_EQ(repo.attachments(), 1);
    EXPECT_EQ(repo.totalAttachments(), 2);
    // The detached attachment's entries and statistics remain.
    EXPECT_TRUE(b.contains({0, 0}));
    EXPECT_EQ(repo.aggregateStats().lookups, 1u);
}

TEST(SharedRepositoryDeathTest, UnattachedHandleOpsAreFatal)
{
    RepositoryHandle none;
    EXPECT_EXIT((void)none.lookup({0, 0}),
                ::testing::ExitedWithCode(1), "unattached");
    EXPECT_EXIT(none.store({0, 0}, kFourLarge),
                ::testing::ExitedWithCode(1), "unattached");
}

TEST(SharedRepository, KeysSortedAndToString)
{
    SharedRepository repo;
    RepositoryHandle h = repo.attach(ServiceKind::KeyValue, "kv");
    h.store({2, 0}, kFourLarge);
    h.store({0, 1}, kFourLarge);
    h.store({0, 0}, kFourLarge);
    const auto keys = h.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], (RepositoryKey{0, 0}));
    EXPECT_EQ(keys[1], (RepositoryKey{0, 1}));
    EXPECT_EQ(keys[2], (RepositoryKey{2, 0}));

    const std::string s = repo.toString();
    EXPECT_NE(s.find("shared-repository{"), std::string::npos);
    EXPECT_NE(s.find("keyvalue"), std::string::npos);
    EXPECT_NE(h.toString().find("repository[keyvalue]"),
              std::string::npos);
}

TEST(SharedRepository, SaveBytesIndependentOfInsertionOrder)
{
    // The kind tables are unordered_maps; save() must never leak
    // hash-iteration order into its CSV (the determinism linter's
    // unordered-iteration rule guards the code path, this pins the
    // bytes). Same entries, opposite insertion orders, identical
    // output.
    const std::vector<RepositoryKey> keys{
        {7, 1}, {0, 0}, {3, 2}, {12, 0}, {1, 1}};

    SharedRepository forward;
    RepositoryHandle hf =
        forward.attach(ServiceKind::KeyValue, "svc");
    for (const RepositoryKey &key : keys)
        hf.store(key, kFourLarge);

    SharedRepository backward;
    RepositoryHandle hb =
        backward.attach(ServiceKind::KeyValue, "svc");
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        hb.store(*it, kFourLarge);

    std::ostringstream a, b;
    forward.save(a);
    backward.save(b);
    EXPECT_EQ(a.str(), b.str());

    // Sorted keys are the contract the bytes follow from.
    const auto sorted = hf.keys();
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(SharedRepository, ConcurrentStoresAndLookupsAggregateExactly)
{
    // The repository is internally synchronized: handles on distinct
    // services may store/look up concurrently. Each worker touches
    // only its own class-id keys, so every count below is exact
    // regardless of interleaving. The TSan CI leg runs this at 8
    // threads.
    constexpr std::size_t kHandles = 8;
    constexpr int kPerHandle = 40;

    SharedRepository repo;
    std::vector<RepositoryHandle> handles(kHandles);
    for (std::size_t h = 0; h < kHandles; ++h)
        handles[h] = repo.attach(ServiceKind::KeyValue,
                                 "svc-" + std::to_string(h));
    EXPECT_EQ(repo.attachments(), static_cast<int>(kHandles));

    parallelFor(kHandles, 8, [&handles](std::size_t h) {
        for (int i = 0; i < kPerHandle; ++i) {
            const RepositoryKey key{static_cast<int>(h), i};
            handles[h].store(key, kFourLarge);
            EXPECT_TRUE(handles[h].lookup(key).has_value());
        }
    });

    const RepositoryStats total = repo.aggregateStats();
    EXPECT_EQ(total.stores, kHandles * kPerHandle);
    EXPECT_EQ(total.lookups, kHandles * kPerHandle);
    EXPECT_EQ(total.hits, kHandles * kPerHandle);
    EXPECT_EQ(total.misses, 0u);
    // Workers only read their own writes: no cross-service reuse.
    EXPECT_EQ(repo.aggregateCrossHits(), 0u);
    EXPECT_EQ(repo.entries(), kHandles * kPerHandle);
}

TEST(SharedRepository, ConcurrentReadersDuringWrites)
{
    // Writers fill disjoint key ranges while readers hammer the
    // whole-repository read surface (peek, keys, entries, stats,
    // toString, save). The reads' *values* are racy by design — the
    // assertions only pin what must hold at any instant — but every
    // access must be data-race-free, which the TSan leg checks.
    constexpr std::size_t kWriters = 4;
    constexpr int kPerWriter = 64;

    SharedRepository repo;
    std::vector<RepositoryHandle> handles(kWriters);
    for (std::size_t h = 0; h < kWriters; ++h)
        handles[h] = repo.attach(ServiceKind::KeyValue,
                                 "svc-" + std::to_string(h));

    parallelFor(kWriters * 2, 8, [&repo, &handles](std::size_t w) {
        if (w < kWriters) {
            for (int i = 0; i < kPerWriter; ++i)
                handles[w].store(
                    RepositoryKey{static_cast<int>(w), i},
                    kSixLarge);
            return;
        }
        const auto h = w - kWriters;
        for (int i = 0; i < kPerWriter; ++i) {
            const RepositoryKey key{static_cast<int>(h), i};
            const auto seen =
                repo.peek(ServiceKind::KeyValue, key);
            if (seen)
                EXPECT_EQ(seen->instances, kSixLarge.instances);
            EXPECT_LE(repo.entries(),
                      kWriters * static_cast<std::size_t>(
                                     kPerWriter));
            EXPECT_LE(repo.aggregateStats().stores,
                      kWriters * static_cast<std::uint64_t>(
                                     kPerWriter));
            std::ostringstream sink;
            repo.save(sink);
        }
    });

    EXPECT_EQ(repo.entries(),
              kWriters * static_cast<std::size_t>(kPerWriter));
    EXPECT_EQ(repo.aggregateStats().stores,
              kWriters * static_cast<std::uint64_t>(kPerWriter));
}

TEST(SharedRepository, ShardCountInvisibleToContentsAndSaveBytes)
{
    // The serving daemon runs many shards, the simulator runs one;
    // the two must be indistinguishable except for lock contention.
    // Same stores into 1- and 8-shard repositories: identical
    // entries, identical peek() answers, identical save() bytes.
    SharedRepository one(1);
    SharedRepository eight(8);
    EXPECT_EQ(one.shards(), 1);
    EXPECT_EQ(eight.shards(), 8);

    RepositoryHandle h1 = one.attach(ServiceKind::KeyValue, "svc");
    RepositoryHandle h8 = eight.attach(ServiceKind::KeyValue, "svc");
    RepositoryHandle r1 = one.attach(ServiceKind::Rubis, "rubis");
    RepositoryHandle r8 = eight.attach(ServiceKind::Rubis, "rubis");
    for (int c = 0; c < 50; ++c)
        for (int b = 0; b < 3; ++b) {
            h1.store({c, b}, kFourLarge);
            h8.store({c, b}, kFourLarge);
            r1.store({c, b}, kTenXL);
            r8.store({c, b}, kTenXL);
        }

    EXPECT_EQ(one.entries(), eight.entries());
    for (int c = 0; c < 50; ++c) {
        EXPECT_EQ(one.peek(ServiceKind::KeyValue, {c, 1}),
                  eight.peek(ServiceKind::KeyValue, {c, 1}));
        EXPECT_EQ(one.peek(ServiceKind::Rubis, {c, 2}),
                  eight.peek(ServiceKind::Rubis, {c, 2}));
    }
    std::ostringstream a, b;
    one.save(a);
    eight.save(b);
    EXPECT_EQ(a.str(), b.str());

    // And load() lands the same bytes at any shard count — the
    // daemon restart contract.
    std::istringstream in(a.str());
    SharedRepository reloaded = SharedRepository::load(
        in, SharedRepository::Mode::Shared, ServiceKind::Generic, 8);
    std::ostringstream c;
    reloaded.save(c);
    EXPECT_EQ(c.str(), a.str());
}

TEST(SharedRepository, VersionAdvancesOnEveryStoreAndClear)
{
    SharedRepository repo(4);
    const std::uint64_t v0 = repo.version();
    RepositoryHandle h = repo.attach(ServiceKind::KeyValue, "svc");
    h.store({0, 0}, kFourLarge);
    const std::uint64_t v1 = repo.version();
    EXPECT_GT(v1, v0);
    h.store({1, 0}, kFourLarge);
    const std::uint64_t v2 = repo.version();
    EXPECT_GT(v2, v1);
    h.clear();
    EXPECT_GT(repo.version(), v2);
}

TEST(SharedRepository, SnapshotIsFrozenSortedAndVersioned)
{
    SharedRepository repo(8);
    RepositoryHandle h = repo.attach(ServiceKind::KeyValue, "svc");
    for (int c = 0; c < 30; ++c)
        h.store({c, c % 3}, kFourLarge);

    const RepositorySnapshot snap =
        repo.snapshot(ServiceKind::KeyValue);
    EXPECT_EQ(snap.kind(), ServiceKind::KeyValue);
    EXPECT_EQ(snap.version(), repo.version());
    EXPECT_EQ(snap.entries(), repo.entries(ServiceKind::KeyValue));
    EXPECT_TRUE(std::is_sorted(
        snap.all().begin(), snap.all().end(),
        [](const RepositorySnapshot::Entry &x,
           const RepositorySnapshot::Entry &y) {
            return x.key < y.key;
        }));
    const auto hit = snap.find({7, 1});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, kFourLarge);
    EXPECT_FALSE(snap.find({7, 2}).has_value());
    EXPECT_FALSE(snap.find({30, 0}).has_value());

    // A store after collection makes the snapshot *look* stale (the
    // version moved) without disturbing its frozen entries — the
    // lookups-never-block-behind-stores contract serving relies on.
    h.store({99, 0}, kSixLarge);
    EXPECT_LT(snap.version(), repo.version());
    EXPECT_FALSE(snap.find({99, 0}).has_value());
    EXPECT_TRUE(
        repo.snapshot(ServiceKind::KeyValue).find({99, 0})
            .has_value());
}

TEST(SharedRepository, ConcurrentShardedStoresWithSnapshotReaders)
{
    // Writers hammer distinct keys across shards while readers take
    // and walk snapshots; the TSan leg runs this at 8 threads. Every
    // snapshot must be internally consistent (sorted, findable keys)
    // no matter what the writers are doing.
    constexpr std::size_t kWorkers = 8;
    constexpr int kPerWriter = 60;

    SharedRepository repo(8);
    std::vector<RepositoryHandle> handles(kWorkers);
    for (std::size_t h = 0; h < kWorkers; ++h)
        handles[h] = repo.attach(ServiceKind::KeyValue,
                                 "svc-" + std::to_string(h));

    parallelFor(kWorkers, 8, [&handles, &repo](std::size_t h) {
        if (h % 2 == 0) {
            for (int i = 0; i < kPerWriter; ++i)
                handles[h].store({static_cast<int>(h), i},
                                 kFourLarge);
        } else {
            for (int i = 0; i < kPerWriter; ++i) {
                const RepositorySnapshot snap =
                    repo.snapshot(ServiceKind::KeyValue);
                EXPECT_LE(snap.version(), repo.version());
                for (const auto &entry : snap.all())
                    EXPECT_TRUE(snap.find(entry.key).has_value());
            }
        }
    });

    EXPECT_EQ(repo.entries(),
              (kWorkers / 2) * static_cast<std::size_t>(kPerWriter));
    const RepositorySnapshot final_ =
        repo.snapshot(ServiceKind::KeyValue);
    EXPECT_EQ(final_.entries(), repo.entries());
}

TEST(SharedRepository, SharingModeNamesRoundTrip)
{
    EXPECT_STREQ(repositorySharingName(RepositorySharing::Private),
                 "private");
    EXPECT_EQ(repositorySharingFromName("shared"),
              RepositorySharing::Shared);
    EXPECT_EXIT((void)repositorySharingFromName("isolated"),
                ::testing::ExitedWithCode(1),
                "unknown repository sharing mode: isolated");
    EXPECT_EQ(
        repositorySharingFromName(
            repositorySharingName(RepositorySharing::Shared)),
        RepositorySharing::Shared);
}

} // namespace
} // namespace dejavu
