/**
 * @file
 * Tests for the extension features: re-clustering (§3.5), the
 * Kingfisher-style cost-aware tuner (§5), and batch-workload
 * interference diagnosis (§3.7).
 */

#include <gtest/gtest.h>

#include "core/batch.hh"
#include "core/controller.hh"
#include "core/cost_tuner.hh"
#include "counters/profiler.hh"
#include "experiments/dejavu_policy.hh"
#include "services/keyvalue_service.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"

namespace dejavu {
namespace {

// --------------------------------------------------------------------
// Re-clustering (§3.5).
// --------------------------------------------------------------------

class RelearnTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(3)};
    ProfilerHost profiler{
        service,
        Monitor(service, CounterModel(ServiceKind::KeyValue, Rng(5))),
        Rng(7)};

    DejaVuController makeController()
    {
        DejaVuController::Config cfg;
        cfg.slo = Slo::latency(60.0);
        cfg.searchSpace = scaleOutSearchSpace(10);
        return DejaVuController(service, profiler, cfg, Rng(9));
    }

    std::vector<Workload> initialWorkloads()
    {
        std::vector<Workload> w;
        for (double clients : {3000.0, 3300.0, 9000.0, 9400.0,
                               16000.0, 16500.0})
            w.push_back({cassandraUpdateHeavy(), clients});
        return w;
    }
};

TEST_F(RelearnTest, RelearnAbsorbsNovelWorkloads)
{
    auto dv = makeController();
    dv.learn(initialWorkloads());

    // A much larger volume appears repeatedly: unknown every time.
    for (int i = 0; i < 3; ++i) {
        const auto d = dv.onWorkloadChange(
            {cassandraUpdateHeavy(), 40000.0 + 100.0 * i});
        EXPECT_EQ(d.kind,
                  DejaVuController::DecisionKind::UnknownWorkload);
    }
    EXPECT_TRUE(dv.relearnRecommended());
    EXPECT_EQ(dv.novelWorkloads().size(), 3u);

    const auto report = dv.relearn();
    EXPECT_EQ(dv.timesRelearned(), 1);
    EXPECT_TRUE(dv.novelWorkloads().empty());
    EXPECT_FALSE(dv.relearnRecommended());
    EXPECT_GE(report.classes, 3);

    // The previously unknown volume now classifies as a hit.
    const auto d = dv.onWorkloadChange(
        {cassandraUpdateHeavy(), 40200.0});
    EXPECT_EQ(d.kind, DejaVuController::DecisionKind::CacheHit);
    // And its cached allocation is large enough for the new volume.
    EXPECT_GE(d.allocation.instances, 8);
}

TEST_F(RelearnTest, RelearnRebuildsRepository)
{
    auto dv = makeController();
    dv.learn(initialWorkloads());
    const auto beforeKeys = dv.repository().entries();
    for (int i = 0; i < 3; ++i)
        dv.onWorkloadChange({cassandraUpdateHeavy(), 42000.0});
    dv.relearn();
    // One entry per (possibly different) class, all baseline buckets.
    EXPECT_GE(dv.repository().entries(), beforeKeys);
    const RepositoryHandle &repo = dv.repository();
    const RepositorySnapshot snap = repo.shared()->snapshot(repo.kind());
    for (const RepositorySnapshot::Entry &entry : snap.all())
        EXPECT_EQ(entry.key.interferenceBucket, 0);
}

TEST_F(RelearnTest, RelearnBeforeLearnDies)
{
    auto dv = makeController();
    EXPECT_DEATH(dv.relearn(), "initial learn");
}

TEST_F(RelearnTest, PolicyAutoRelearnClosesTheLoop)
{
    auto dv = makeController();
    dv.learn(initialWorkloads());
    DejaVuPolicy policy(service, dv, /*autoRelearn=*/true);
    // A persistent new regime: three consecutive unknown workloads
    // trip the recommendation and the policy relearns on its own.
    for (int i = 0; i < 3; ++i)
        policy.onWorkloadChange(
            {cassandraUpdateHeavy(), 40000.0 + 50.0 * i});
    EXPECT_EQ(policy.relearnEvents(), 1);
    EXPECT_EQ(dv.timesRelearned(), 1);
    // The regime is absorbed: the next occurrence is a cache hit.
    policy.onWorkloadChange({cassandraUpdateHeavy(), 40100.0});
    EXPECT_EQ(policy.unknownWorkloadEvents(), 3);
    EXPECT_FALSE(dv.relearnRecommended());
}

// --------------------------------------------------------------------
// Cost-aware tuner (§5, Kingfisher-style).
// --------------------------------------------------------------------

class CostTunerTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(11)};
    ProfilerHost profiler{
        service,
        Monitor(service, CounterModel(ServiceKind::KeyValue, Rng(13))),
        Rng(15)};
};

TEST_F(CostTunerTest, GridSortedByCost)
{
    CostAwareTuner tuner(profiler, Slo::latency(60.0));
    const auto grid = tuner.candidateGrid();
    EXPECT_EQ(grid.size(), 30u);  // 3 types x 10 counts
    for (std::size_t i = 1; i < grid.size(); ++i)
        EXPECT_LE(grid[i - 1].dollarsPerHour(),
                  grid[i].dollarsPerHour());
}

TEST_F(CostTunerTest, FirstHitIsCheapestAdequate)
{
    CostAwareTuner tuner(profiler, Slo::latency(60.0));
    const Workload w{cassandraUpdateHeavy(), 20000.0};
    const auto result = tuner.tune(w);
    ASSERT_TRUE(result.feasible);
    EXPECT_LE(service.hypotheticalLatencyMs(w, result.allocation),
              60.0);
    // No cheaper allocation in the grid satisfies the target.
    for (const auto &candidate : tuner.candidateGrid()) {
        if (candidate.dollarsPerHour() <
            result.allocation.dollarsPerHour()) {
            EXPECT_GT(service.hypotheticalLatencyMs(w, candidate),
                      60.0 * 0.9);
        }
    }
}

TEST_F(CostTunerTest, NeverCostsMoreThanLinearSearch)
{
    const Slo slo = Slo::latency(60.0);
    Tuner linear(profiler, slo, scaleOutSearchSpace(10));
    CostAwareTuner costAware(profiler, slo);
    for (double clients : {4000.0, 12000.0, 22000.0, 34000.0}) {
        const Workload w{cassandraUpdateHeavy(), clients};
        const auto lin = linear.tune(w);
        const auto cheap = costAware.tune(w);
        if (lin.feasible && cheap.feasible) {
            EXPECT_LE(cheap.allocation.dollarsPerHour(),
                      lin.allocation.dollarsPerHour() + 1e-9)
                << "at " << clients << " clients";
        }
    }
}

TEST_F(CostTunerTest, CapacityPruningSavesExperiments)
{
    const Slo slo = Slo::latency(60.0);
    CostAwareTuner::Config pruned;
    pruned.capacityPruning = true;
    CostAwareTuner::Config exhaustive;
    exhaustive.capacityPruning = false;
    CostAwareTuner a(profiler, slo, pruned);
    CostAwareTuner b(profiler, slo, exhaustive);
    const Workload w{cassandraUpdateHeavy(), 30000.0};
    const auto ra = a.tune(w);
    const auto rb = b.tune(w);
    EXPECT_EQ(ra.allocation, rb.allocation);  // same optimum
    EXPECT_LT(ra.experiments, rb.experiments);
}

TEST_F(CostTunerTest, InfeasibleReturnsLargest)
{
    CostAwareTuner tuner(profiler, Slo::latency(60.0));
    const auto result =
        tuner.tune({cassandraUpdateHeavy(), 900000.0});
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.allocation.type, InstanceType::XLarge);
    EXPECT_EQ(result.allocation.instances, 10);
}

// --------------------------------------------------------------------
// Batch workloads (§3.7).
// --------------------------------------------------------------------

class BatchTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    BatchJobRunner runner{cluster, Rng(17)};

    std::vector<BatchTask> honestJob(int tasks, double inputMb)
    {
        std::vector<BatchTask> job;
        for (int i = 0; i < tasks; ++i) {
            BatchTask t;
            t.inputMb = inputMb;
            t.expectedRuntimeSec = runner.honestExpectationSec(t);
            job.push_back(t);
        }
        return job;
    }

    void interfere(double loss)
    {
        for (int i = 0; i < cluster.poolSize(); ++i)
            cluster.vm(i).setInterference(loss);
        cluster.setActiveInstances(4);
        queue.runUntil(queue.now() + minutes(1));
    }
};

TEST_F(BatchTest, RuntimeScalesWithInput)
{
    BatchTask small{64.0, 0.0};
    BatchTask large{256.0, 0.0};
    EXPECT_NEAR(runner.idealRuntimeSec(large),
                4.0 * runner.idealRuntimeSec(small), 1e-9);
}

TEST_F(BatchTest, CleanClusterNoViolation)
{
    cluster.setActiveInstances(4);
    queue.runUntil(minutes(1));
    BatchInterferenceProbe probe(runner);
    const auto report = probe.diagnose(honestJob(10, 64.0));
    EXPECT_EQ(report.verdict,
              BatchInterferenceProbe::Verdict::NoViolation);
}

TEST_F(BatchTest, InterferenceDetected)
{
    interfere(0.30);
    BatchInterferenceProbe probe(runner);
    const auto report = probe.diagnose(honestJob(10, 64.0));
    EXPECT_EQ(report.verdict,
              BatchInterferenceProbe::Verdict::Interference);
    // 30% capacity loss => runtime ratio ~1/0.7 ~ 1.43.
    EXPECT_NEAR(report.interferenceIndex, 1.0 / 0.7, 0.15);
    EXPECT_GT(report.interferenceBucket, 0);
}

TEST_F(BatchTest, MisestimateExposed)
{
    // Clean cluster, but the user promised half the honest runtime:
    // "interference is not significant and the user simply
    // mis-estimated the expected running times" (§3.7).
    cluster.setActiveInstances(4);
    queue.runUntil(minutes(1));
    auto job = honestJob(10, 64.0);
    for (auto &t : job)
        t.expectedRuntimeSec *= 0.5;
    BatchInterferenceProbe probe(runner);
    const auto report = probe.diagnose(job);
    EXPECT_EQ(report.verdict,
              BatchInterferenceProbe::Verdict::UserMisestimate);
    EXPECT_NEAR(report.misestimateRatio, 2.0, 0.3);
}

TEST_F(BatchTest, InterferenceTrumpsMisestimate)
{
    // Both problems at once: the index is the actionable signal.
    interfere(0.30);
    auto job = honestJob(10, 64.0);
    for (auto &t : job)
        t.expectedRuntimeSec *= 0.8;
    BatchInterferenceProbe probe(runner);
    const auto report = probe.diagnose(job);
    EXPECT_EQ(report.verdict,
              BatchInterferenceProbe::Verdict::Interference);
}

TEST_F(BatchTest, DiagnoseRequiresExpectations)
{
    cluster.setActiveInstances(2);
    queue.runUntil(minutes(1));
    BatchInterferenceProbe probe(runner);
    std::vector<BatchTask> job = {{64.0, 0.0}};  // no SLO given
    EXPECT_DEATH(probe.diagnose(job), "expected runtime");
}

} // namespace
} // namespace dejavu
