/**
 * @file
 * Unit tests for request mixes and client emulation
 * (workload/request_mix.hh, workload/client_emulator.hh).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "workload/client_emulator.hh"
#include "workload/request_mix.hh"

namespace dejavu {
namespace {

TEST(RequestMix, CatalogIsComplete)
{
    const std::vector<RequestMix> mixes = {
        cassandraUpdateHeavy(), cassandraReadHeavy(), cassandraBalanced(),
        specwebBanking(), specwebEcommerce(), specwebSupport(),
        rubisBrowsing(), rubisBidding(),
        ycsbUpdateHeavy(), ycsbReadHeavy(), ycsbReadOnly(),
        ycsbReadLatest(),
    };
    std::set<std::string> names;
    for (const auto &m : mixes)
        names.insert(m.name);
    EXPECT_EQ(names.size(), 12u) << "every mix has its own name";
    for (const auto &m : mixes) {
        EXPECT_FALSE(m.name.empty());
        EXPECT_GE(m.readFraction, 0.0);
        EXPECT_LE(m.readFraction, 1.0);
        EXPECT_GT(m.cpuWeight, 0.0);
        EXPECT_GT(m.memWeight, 0.0);
        EXPECT_GT(m.ioWeight, 0.0);
        EXPECT_GE(m.staticFraction, 0.0);
        EXPECT_LE(m.staticFraction, 1.0);
    }
}

TEST(RequestMix, PaperMixProperties)
{
    // §4.1: update-heavy = 95% writes, 5% reads.
    EXPECT_DOUBLE_EQ(cassandraUpdateHeavy().readFraction, 0.05);
    // §4.2: support is read-only and I/O-intensive.
    EXPECT_DOUBLE_EQ(specwebSupport().readFraction, 1.0);
    EXPECT_GT(specwebSupport().ioWeight, specwebBanking().ioWeight);
    // Banking is the most CPU-intensive web mix (HTTPS-like).
    EXPECT_GT(specwebBanking().cpuWeight, specwebSupport().cpuWeight);
    // YCSB core mixes: A is 50/50, B is 95/5, C is read-only, D is
    // read-latest (95/5 inserts, the most memory-pressured mix).
    EXPECT_DOUBLE_EQ(ycsbUpdateHeavy().readFraction, 0.50);
    EXPECT_DOUBLE_EQ(ycsbReadHeavy().readFraction, 0.95);
    EXPECT_DOUBLE_EQ(ycsbReadOnly().readFraction, 1.0);
    EXPECT_DOUBLE_EQ(ycsbReadLatest().readFraction, 0.95);
    EXPECT_GT(ycsbReadLatest().memWeight, ycsbReadHeavy().memWeight);
}

TEST(RequestMix, EqualityByName)
{
    EXPECT_EQ(cassandraUpdateHeavy(), cassandraUpdateHeavy());
    EXPECT_FALSE(cassandraUpdateHeavy() == cassandraReadHeavy());
}

TEST(ClientEmulator, LinearRate)
{
    ClientEmulator e;
    EXPECT_DOUBLE_EQ(e.offeredRate(0.0), 0.0);
    EXPECT_DOUBLE_EQ(e.offeredRate(700.0), 100.0);  // 7 s think time
}

TEST(ClientEmulator, InverseMapping)
{
    ClientEmulator e;
    const double clients = 1234.0;
    EXPECT_NEAR(e.clientsForRate(e.offeredRate(clients)), clients,
                1e-9);
}

TEST(ClientEmulator, CustomThinkTime)
{
    ClientEmulator::Config cfg;
    cfg.thinkTimeSeconds = 2.0;
    ClientEmulator e(cfg);
    EXPECT_DOUBLE_EQ(e.offeredRate(100.0), 50.0);
}

TEST(ClientEmulator, SampleJitterIsBounded)
{
    ClientEmulator::Config cfg;
    cfg.jitter = 0.05;
    ClientEmulator e(cfg, Rng(3));
    const double mean = e.offeredRate(7000.0);
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double s = e.sampleRate(7000.0);
        EXPECT_GT(s, mean * 0.7);
        EXPECT_LT(s, mean * 1.3);
        sum += s;
    }
    EXPECT_NEAR(sum / 1000.0, mean, mean * 0.01);
}

TEST(ClientEmulatorDeath, NegativeClients)
{
    ClientEmulator e;
    EXPECT_DEATH(e.offeredRate(-1.0), "negative");
}

} // namespace
} // namespace dejavu
