/**
 * @file
 * Conformance suite for the scenario families the sim had never seen:
 * YCSB-style mixes, background-daemon co-runners and host-loss fault
 * injection. Pins digest determinism at 1/4/8 runner threads per
 * family, daemon duty-cycle mechanics, and the no-orphaned-work
 * invariant after host-loss schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "experiments/runner.hh"
#include "sim/cluster.hh"
#include "sim/daemon.hh"
#include "sim/event_queue.hh"
#include "sim/interference.hh"

namespace dejavu {
namespace {

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _before = logLevel();
        setLogLevel(LogLevel::Silent);
    }
    void TearDown() override { setLogLevel(_before); }

  private:
    LogLevel _before = LogLevel::Info;
};

using ScenarioFamilies = QuietLogs;

// --------------------------------------------------------------------
// Digest determinism: every new family must produce byte-identical
// sweep digests at 1, 4 and 8 runner threads (the repo's standing
// acceptance bar, extended to ycsb / +daemons / +hostloss cells).
// --------------------------------------------------------------------

TEST_F(ScenarioFamilies, NewFamiliesDigestIdenticallyAcrossThreads)
{
    const auto cells = ExperimentRunner::grid(
        {"fleet-ycsb-8", "fleet-ycsb-8+daemons",
         "fleet-mixed-9+daemons+hostloss",
         "fleet-ycsb-8+daemons+hostloss", "fleet-ycsb-6-h2+hostloss"},
        {"fifo"}, {1});

    auto digestAt = [&](int threads) {
        const auto summaries =
            ExperimentRunner(ExperimentRunner::Config(threads))
                .sweepInto(cells, runFleetCell);
        std::vector<FleetCellResult> rows;
        for (std::size_t i = 0; i < cells.size(); ++i)
            rows.push_back({cells[i], summaries[i]});
        return fleetSweepCsv(rows);
    };

    const std::string digest1 = digestAt(1);
    EXPECT_EQ(digest1, digestAt(4));
    EXPECT_EQ(digest1, digestAt(8));
    // One row per cell plus the header.
    EXPECT_EQ(std::count(digest1.begin(), digest1.end(), '\n'),
              static_cast<std::ptrdiff_t>(cells.size() + 1));
    // The ycsb family lands in the digest under private sharing (its
    // default: one kind spanning four mixes must not share a table).
    EXPECT_NE(digest1.find("fleet-ycsb-8,fifo,1,8,1,private,"),
              std::string::npos);
    // The digest carries the P99.9 adaptation-tail columns.
    EXPECT_NE(digest1.find("queue_p999_s"), std::string::npos);
    EXPECT_NE(digest1.find("adapt_p999_s"), std::string::npos);
}

// --------------------------------------------------------------------
// Host-loss conformance: the fleet keeps adapting through the
// kill/restore schedule, every failed host comes back, and no work
// item is ever stranded in Granted state without a live grant.
// --------------------------------------------------------------------

TEST_F(ScenarioFamilies, HostLossCellsAdaptWithoutOrphanedWork)
{
    const auto summary =
        runFleetCell({"fleet-ycsb-8+daemons+hostloss", "fifo", 1});
    EXPECT_GT(summary.adaptations, 0u);
    EXPECT_EQ(summary.orphanedItems, 0u);
    // The 6-hourly schedule lands several kills inside the 2-day
    // horizon, and every 45-minute outage ends before it.
    EXPECT_GE(summary.hostsFailed, 3u);
    EXPECT_EQ(summary.hostsFailed, summary.hostsRestored);
}

TEST_F(ScenarioFamilies, HostLossSurvivesMultiHostPools)
{
    // M = 2: kills rotate round-robin over the pool, so both hosts
    // take a turn dying while the other keeps granting slots.
    const auto summary =
        runFleetCell({"fleet-ycsb-6-h2+hostloss", "fifo", 1});
    EXPECT_EQ(summary.hosts, 2);
    EXPECT_GT(summary.adaptations, 0u);
    EXPECT_EQ(summary.orphanedItems, 0u);
    EXPECT_GE(summary.hostsFailed, 3u);
    EXPECT_EQ(summary.hostsFailed, summary.hostsRestored);
}

// --------------------------------------------------------------------
// Builder and grammar wiring of the new families.
// --------------------------------------------------------------------

TEST_F(ScenarioFamilies, YcsbFleetBuildsFourMixFamily)
{
    auto stack =
        makeFleetScenario("fleet-ycsb-4", 7, SlotPolicy::Fifo);
    ASSERT_EQ(stack->members.size(), 4u);
    for (const auto &member : stack->members) {
        EXPECT_EQ(member->service->kind(), ServiceKind::Ycsb);
        EXPECT_EQ(member->injector, nullptr);
        EXPECT_EQ(member->daemon, nullptr);
    }
    EXPECT_EQ(stack->hostLoss, nullptr);
    EXPECT_EQ(stack->experiment->sharing(),
              RepositorySharing::Private);
}

TEST_F(ScenarioFamilies, PlusSuffixesComposeInAnyOrder)
{
    auto stack = makeFleetScenario("fleet-ycsb-3+hostloss+daemons", 7,
                                   SlotPolicy::Fifo);
    ASSERT_EQ(stack->members.size(), 3u);
    for (const auto &member : stack->members) {
        EXPECT_NE(member->daemon, nullptr);
        EXPECT_EQ(member->injector, nullptr);
    }
    ASSERT_NE(stack->hostLoss, nullptr);
    EXPECT_TRUE(stack->hostLoss->enabled());

    // The §4.3 injector and the daemon are distinct mechanisms and
    // coexist on the same members.
    auto both = makeFleetScenario("fleet-mixed-3+interference+daemons",
                                  7, SlotPolicy::Fifo);
    for (const auto &member : both->members) {
        EXPECT_NE(member->injector, nullptr);
        EXPECT_NE(member->daemon, nullptr);
    }
    EXPECT_EQ(both->hostLoss, nullptr);
}

using ScenarioFamiliesDeath = QuietLogs;

TEST_F(ScenarioFamiliesDeath, UnknownPlusSuffixIsFatalWithGrammar)
{
    // A typo'd "+" suffix must fail loudly with the full grammar, not
    // fold into the mix or size token.
    EXPECT_EXIT(makeFleetScenario("fleet-ycsb-8+daemon", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '\\+' suffix.*the shape is");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-9+hostloss+bogus", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '\\+' suffix.*the shape is");
    // The unknown-mix path also names the grammar now.
    EXPECT_EXIT(makeFleetScenario("fleet-tpcc-8", 1, SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown fleet mix.*the scenario shape is");
}

// --------------------------------------------------------------------
// Daemon co-runner mechanics.
// --------------------------------------------------------------------

TEST(DaemonCoRunner, DutyCycleAppliesAndClearsTierTheft)
{
    EventQueue q;
    Cluster c(q, {});
    DaemonCoRunner::Config cfg;  // tiers {0.15, 0.45}, 1 h, duty 0.25
    DaemonCoRunner daemon(q, c, cfg, Rng(21));

    // Sample one VM's daemon theft every simulated minute for 4 hours:
    // the duty cycle must visit both pressure tiers and the idle gap.
    std::vector<double> seen;
    for (int m = 0; m < 240; ++m)
        q.schedule(minutes(m),
                   [&] { seen.push_back(c.vm(0).daemonTheft()); });
    daemon.start();
    q.runUntil(hours(4) + seconds(1));

    auto count = [&](double level) {
        return std::count(seen.begin(), seen.end(), level);
    };
    EXPECT_GT(count(0.0), 0);
    EXPECT_GT(count(0.15), 0);
    EXPECT_GT(count(0.45), 0);
    EXPECT_GE(daemon.scansCompleted(), 3u);
}

TEST(DaemonCoRunner, TheftSurvivesInjectorStop)
{
    EventQueue q;
    Cluster c(q, {});
    DaemonCoRunner::Config cfg;
    cfg.scanTheft = {0.25};
    cfg.dutyCycle = 1.0;  // always scanning: theft is pinned at 0.25
    DaemonCoRunner daemon(q, c, cfg, Rng(3));
    daemon.start();
    q.runUntil(hours(2));
    EXPECT_DOUBLE_EQ(c.vm(0).daemonTheft(), 0.25);

    // The §4.3 injector composes multiplicatively on top...
    InterferenceInjector::Config icfg;
    icfg.levels = {0.10};
    icfg.contentionMultiplier = 1.0;
    InterferenceInjector injector(q, c, icfg, Rng(5));
    injector.applyOnce();
    EXPECT_DOUBLE_EQ(c.vm(0).interference(),
                     1.0 - (1.0 - 0.10) * (1.0 - 0.25));

    // ...and stopping it leaves the daemon channel exactly intact:
    // daemons are host software, not a workload phase.
    injector.stop();
    EXPECT_DOUBLE_EQ(c.vm(0).interference(), 0.25);
    daemon.stop();
    EXPECT_DOUBLE_EQ(c.vm(0).interference(), 0.0);
}

TEST(DaemonCoRunner, DisabledDaemonNeverTouchesVms)
{
    EventQueue q;
    Cluster c(q, {});
    DaemonCoRunner::Config cfg;
    cfg.enabled = false;
    DaemonCoRunner daemon(q, c, cfg, Rng(9));
    daemon.start();
    q.runUntil(hours(6));
    for (int i = 0; i < c.poolSize(); ++i)
        EXPECT_DOUBLE_EQ(c.vm(i).daemonTheft(), 0.0);
    EXPECT_EQ(daemon.scansCompleted(), 0u);
}

} // namespace
} // namespace dejavu
