/**
 * @file
 * Tests for the parallel experiment engine: cartesian grids, ordered
 * merges, and bit-identical results at any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.hh"
#include "experiments/runner.hh"

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

TEST(RunnerGrid, CartesianProductInOrder)
{
    const auto cells = ExperimentRunner::grid(
        {"s1", "s2"}, {"p1", "p2"}, {7, 8});
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].toString(), "s1/p1/s7");
    EXPECT_EQ(cells[1].toString(), "s1/p1/s8");
    EXPECT_EQ(cells[2].toString(), "s1/p2/s7");
    EXPECT_EQ(cells[7].toString(), "s2/p2/s8");
}

TEST(RunnerSweep, ResultsInInputOrderRegardlessOfCompletion)
{
    // Cells finish in reverse order (later cells are quicker), but
    // the merge must follow input order.
    std::vector<SweepCell> cells;
    for (int i = 0; i < 16; ++i)
        cells.push_back({"scenario", "p" + std::to_string(i),
                         static_cast<std::uint64_t>(i)});

    std::atomic<int> running{0};
    const auto fn = [&](const SweepCell &cell) {
        ++running;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(16 - cell.seed));
        ExperimentResult r;
        r.policyName = cell.policy;
        r.costDollars = static_cast<double>(cell.seed);
        return r;
    };
    const auto results =
        ExperimentRunner(ExperimentRunner::Config(8)).sweep(cells, fn);
    EXPECT_EQ(running.load(), 16);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].cell.toString(), cells[i].toString());
        EXPECT_EQ(results[i].result.policyName, cells[i].policy);
        EXPECT_DOUBLE_EQ(results[i].result.costDollars,
                         static_cast<double>(i));
    }
}

TEST(RunnerSweep, ThreadCountDefaultsToHardware)
{
    ExperimentRunner runner;
    EXPECT_GE(runner.threads(), 1);
    ExperimentRunner one(ExperimentRunner::Config(1));
    EXPECT_EQ(one.threads(), 1);
}

using RunnerIntegration = QuietLogs;

TEST_F(RunnerIntegration, BitIdenticalAcrossThreadCounts)
{
    // The ISSUE acceptance bar: a >= 3 policy x >= 4 seed sweep must
    // produce byte-identical aggregates at 1 and 8 threads (and the
    // full per-cell series must match, not just the digest).
    const auto cells = ExperimentRunner::grid(
        {"cassandra-messenger"},
        {"dejavu", "autopilot", "rightscale-3m"}, {1, 2, 3, 4});

    auto runAt = [&](int threads) {
        return ExperimentRunner(ExperimentRunner::Config(threads))
            .sweep(cells, runStandardCell);
    };
    const auto at1 = runAt(1);
    const auto at4 = runAt(4);
    const auto at8 = runAt(8);

    const std::string digest1 = sweepCsv(aggregateSweep(at1));
    EXPECT_EQ(digest1, sweepCsv(aggregateSweep(at4)));
    EXPECT_EQ(digest1, sweepCsv(aggregateSweep(at8)));

    for (std::size_t i = 0; i < at1.size(); ++i) {
        const auto &a = at1[i].result;
        const auto &b = at8[i].result;
        EXPECT_DOUBLE_EQ(a.costDollars, b.costDollars);
        EXPECT_DOUBLE_EQ(a.sloViolationFraction,
                         b.sloViolationFraction);
        EXPECT_DOUBLE_EQ(a.savingsPercent, b.savingsPercent);
        ASSERT_EQ(a.latencyMs.size(), b.latencyMs.size());
        for (std::size_t k = 0; k < a.latencyMs.size(); ++k) {
            EXPECT_DOUBLE_EQ(a.latencyMs[k].timeHours,
                             b.latencyMs[k].timeHours);
            EXPECT_DOUBLE_EQ(a.latencyMs[k].value,
                             b.latencyMs[k].value);
        }
    }
}

TEST_F(RunnerIntegration, FleetPolicySweepBitIdenticalAcrossThreads)
{
    // Scheduler-policy determinism: a (policy x seed) fleet sweep on
    // a 9-service mixed fleet must digest byte-identically at 1, 4
    // and 8 runner threads — slot scheduling is pure simulation
    // state, never wall clock.
    const auto cells = ExperimentRunner::grid(
        {"fleet-mixed-9"}, slotPolicyNames(), {1, 2});

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
    // Every (scenario, policy, seed) row made it into the digest
    // with a populated tail.
    EXPECT_EQ(std::count(digest1.begin(), digest1.end(), '\n'),
              static_cast<std::ptrdiff_t>(cells.size() + 1));
    std::cout << "DIGEST9\n" << digest1;
    EXPECT_NE(digest1.find("fleet-mixed-9,sjf,1,9,1,private,"),
              std::string::npos);
}

TEST_F(RunnerIntegration, HundredServicePoolSweepBitIdentical)
{
    // The ISSUE acceptance bar: the 100-service 4-host cell must
    // digest byte-identically at 1, 4 and 8 runner threads. Two
    // policies keep the 100-service cells affordable while still
    // exercising cross-thread scheduling of multiple cells.
    const auto cells = ExperimentRunner::grid(
        {"fleet-mixed-100-h4"}, {"fifo", "adaptive"}, {42});

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
    // 4-host pool recorded in the CSV; 24 reuse hours x 100 services
    // signature slots plus 150 tuner runs make 2550 adaptations.
    EXPECT_NE(digest1.find(
                  "fleet-mixed-100-h4,fifo,42,100,4,private,2550"),
              std::string::npos);
    EXPECT_NE(digest1.find(",wq,2400,150,"), std::string::npos);
}

TEST_F(RunnerIntegration, FleetScenarioParsesHostPoolSuffix)
{
    auto stack = makeFleetScenario("fleet-mixed-3-h2", 42,
                                   SlotPolicy::Fifo);
    EXPECT_EQ(stack->members.size(), 3u);
    EXPECT_EQ(stack->experiment->fleet().profilingHosts(), 2);
    // Default pool size is the paper's single dedicated machine.
    auto single = makeFleetScenario("fleet-mixed-3", 42,
                                    SlotPolicy::Fifo);
    EXPECT_EQ(single->experiment->fleet().profilingHosts(), 1);
}

TEST_F(RunnerIntegration, FleetScenarioParsesSharingSuffix)
{
    // Default: today's private per-controller repositories.
    auto def = makeFleetScenario("fleet-mixed-3-h2", 42,
                                 SlotPolicy::Fifo);
    EXPECT_EQ(def->experiment->sharing(), RepositorySharing::Private);
    EXPECT_EQ(def->experiment->sharedRepository(), nullptr);

    auto shared = makeFleetScenario("fleet-mixed-3-h2-shared", 42,
                                    SlotPolicy::Fifo);
    EXPECT_EQ(shared->experiment->sharing(),
              RepositorySharing::Shared);
    ASSERT_NE(shared->experiment->sharedRepository(), nullptr);
    EXPECT_EQ(shared->members.size(), 3u);
    for (const auto &member : shared->members)
        EXPECT_EQ(member->controller->repository().shared(),
                  shared->experiment->sharedRepository());
    EXPECT_EQ(shared->experiment->fleet().profilingHosts(), 2);

    // The sharing suffix composes with a missing host suffix, and
    // an explicit "-private" is accepted.
    auto noHosts = makeFleetScenario("fleet-cassandra-4-shared", 42,
                                     SlotPolicy::Fifo);
    EXPECT_EQ(noHosts->experiment->sharing(),
              RepositorySharing::Shared);
    EXPECT_EQ(noHosts->experiment->fleet().profilingHosts(), 1);
    auto priv = makeFleetScenario("fleet-mixed-3-private", 42,
                                  SlotPolicy::Fifo);
    EXPECT_EQ(priv->experiment->sharing(),
              RepositorySharing::Private);
}

TEST_F(RunnerIntegration, SharedFleetSweepBitIdenticalAcrossThreads)
{
    // The sharing axis must not disturb determinism: shared (which
    // coalesces and cancels), private and jittered cells of one sweep
    // digest byte-identically at 1, 4 and 8 runner threads.
    const auto cells = ExperimentRunner::grid(
        {"fleet-mixed-9-shared", "fleet-mixed-9-private",
         "fleet-mixed-9-shared-jit"},
        {"fifo", "sjf", "adaptive"}, {1});

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
    EXPECT_NE(digest1.find("fleet-mixed-9-shared,fifo,1,9,1,shared"),
              std::string::npos);
    EXPECT_NE(
        digest1.find("fleet-mixed-9-private,fifo,1,9,1,private"),
        std::string::npos);
    // The work_mode column keeps its one value.
    EXPECT_NE(digest1.find(",wq,"), std::string::npos);
}

TEST_F(RunnerIntegration, FleetScenarioParsesJitter)
{
    auto def = makeFleetScenario("fleet-mixed-3-h2-shared", 42,
                                 SlotPolicy::Fifo);
    for (const auto &member : def->members) {
        EXPECT_EQ(member->arrivalOffset, 0);
        EXPECT_EQ(member->injector, nullptr);
    }

    // All suffixes compose in canonical order:
    // -h<M> -<sharing> -jit +interference.
    auto full = makeFleetScenario(
        "fleet-mixed-3-h2-shared-jit+interference", 42,
        SlotPolicy::Fifo);
    EXPECT_EQ(full->experiment->sharing(), RepositorySharing::Shared);
    EXPECT_EQ(full->experiment->fleet().profilingHosts(), 2);
    EXPECT_EQ(full->members.size(), 3u);
    bool anyOffset = false;
    for (const auto &member : full->members) {
        EXPECT_LT(member->arrivalOffset, kDefaultJitterSpread);
        anyOffset = anyOffset || member->arrivalOffset > 0;
        EXPECT_NE(member->injector, nullptr);
    }
    EXPECT_TRUE(anyOffset);
    // The fleet coalesces signature collections only under sharing.
    EXPECT_TRUE(
        full->experiment->fleet().workQueue().coalescer().enabled());
    auto priv = makeFleetScenario("fleet-mixed-3", 42, SlotPolicy::Fifo);
    EXPECT_FALSE(
        priv->experiment->fleet().workQueue().coalescer().enabled());
}

TEST_F(RunnerIntegration, FleetCellRejectsMalformedScenarios)
{
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-9-h0", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1), "at least one host");
    EXPECT_EXIT(makeFleetScenario("mixed-10", 1, SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1), "fleet-");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed", 1, SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1), "fleet scenario");
    EXPECT_EXIT(makeFleetScenario("fleet-lustre-4", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1), "unknown fleet mix");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-0", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1), "at least one");
    // Trailing garbage must not silently parse as a smaller fleet.
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-9x", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1), "bad fleet size");
    // A typo'd "+" suffix must fail loudly with the full grammar —
    // never fold into the mix or size token.
    EXPECT_EXIT(makeFleetScenario("fleet-ycsb-9+daemonz", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '\\+' suffix.*the shape is");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-9+interference+late", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '\\+' suffix.*fleet-<mix>-<N>");
}

TEST_F(RunnerIntegration, FleetCellRejectsRetiredSuffixes)
{
    // The retired A/B suffixes fail with the full grammar, not as a
    // "bad fleet size".
    EXPECT_EXIT(makeFleetScenario("fleet-cassandra-4-legacy", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '-legacy' suffix.*the shape is");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-9-shared-wq", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '-wq' suffix.*the shape is");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-9-isolated", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '-isolated' suffix.*the shape is");
    EXPECT_EXIT(makeFleetScenario("fleet-mixed-100-h4-probes", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '-probes' suffix.*the shape is");
    EXPECT_EXIT(makeFleetScenario("fleet-ycsb-9-batched+daemons", 1,
                                  SlotPolicy::Fifo),
                ::testing::ExitedWithCode(1),
                "unknown '-batched' suffix.*fleet-<mix>-<N>");
}

TEST_F(RunnerIntegration, AggregateGroupsByScenarioAndPolicy)
{
    const auto cells = ExperimentRunner::grid(
        {"cassandra-messenger"}, {"dejavu", "autopilot"}, {1, 2});
    const auto results =
        ExperimentRunner(ExperimentRunner::Config(4))
            .sweep(cells, runStandardCell);
    const auto aggregates = aggregateSweep(results);
    ASSERT_EQ(aggregates.size(), 2u);
    EXPECT_EQ(aggregates[0].policy, "dejavu");
    EXPECT_EQ(aggregates[0].cells, 2);
    EXPECT_EQ(aggregates[1].policy, "autopilot");
    EXPECT_EQ(aggregates[1].cells, 2);
    // DejaVu must beat the schedule-replay baseline on SLO quality.
    EXPECT_LT(aggregates[0].sloViolationPercent.mean(),
              aggregates[1].sloViolationPercent.mean());
}

TEST_F(RunnerIntegration, StandardCellCoversEveryPolicy)
{
    for (const char *policy :
         {"dejavu", "overprovision", "reactive-tuning"}) {
        const ExperimentResult r =
            runStandardCell({"cassandra-messenger", policy, 42});
        EXPECT_FALSE(r.latencyMs.empty()) << policy;
        EXPECT_GT(r.costDollars, 0.0) << policy;
    }
    // Overprovision pins max capacity: zero savings by construction.
    const ExperimentResult over =
        runStandardCell({"cassandra-messenger", "overprovision", 42});
    EXPECT_NEAR(over.savingsPercent, 0.0, 1.0);
}

TEST_F(RunnerIntegration, UnknownScenarioOrPolicyIsFatal)
{
    EXPECT_EXIT(runStandardCell({"nonsense", "dejavu", 1}),
                ::testing::ExitedWithCode(1), "scenario");
    EXPECT_EXIT(runStandardCell({"cassandra-messenger", "nope", 1}),
                ::testing::ExitedWithCode(1), "unknown policy");
}

} // namespace
} // namespace dejavu
