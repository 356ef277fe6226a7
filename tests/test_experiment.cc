/**
 * @file
 * Integration tests: the full case-study pipeline (scenario ->
 * learning -> reuse) reproduces the paper's headline behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "experiments/actors.hh"
#include "experiments/runner.hh"
#include "experiments/sampler.hh"
#include "experiments/scenario.hh"

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

using IntegrationTest = QuietLogs;

TEST_F(IntegrationTest, CassandraMessengerEndToEnd)
{
    ScenarioOptions opt;
    opt.seed = 42;
    opt.traceName = "messenger";
    auto stack = makeCassandraScaleOut(opt);
    const auto report = stack->learnDayOne();

    // A handful of classes (paper: 4 for Messenger).
    EXPECT_GE(report.classes, 3);
    EXPECT_LE(report.classes, 6);

    DejaVuPolicy policy(*stack->service, *stack->controller);
    const ExperimentResult r = stack->experiment->run(policy);

    // Headline claims (§4.1 / §4.5).
    EXPECT_GT(r.savingsPercent, 35.0);   // paper: ~55% scale-out
    EXPECT_LT(r.sloViolationFraction, 0.05);
    EXPECT_NEAR(r.adaptationSec.mean(), 10.0, 2.0);
    EXPECT_GT(stack->controller->repository().hitRate(), 0.9);
}

TEST_F(IntegrationTest, CassandraHotmailUnknownWorkloadDay4)
{
    ScenarioOptions opt;
    opt.seed = 42;
    opt.traceName = "hotmail";
    auto stack = makeCassandraScaleOut(opt);
    stack->learnDayOne();
    DejaVuPolicy policy(*stack->service, *stack->controller);
    const ExperimentResult r = stack->experiment->run(policy);

    // The day-4 flash crowd is unclassifiable -> full capacity
    // (§4.1, Figure 7): at least one such event, but rare.
    EXPECT_GE(policy.unknownWorkloadEvents(), 1);
    EXPECT_LE(policy.unknownWorkloadEvents(), 5);
    EXPECT_GT(r.savingsPercent, 40.0);   // paper: ~60%
    EXPECT_LT(r.sloViolationFraction, 0.05);
}

TEST_F(IntegrationTest, SpecWebScaleUpMeetsQos)
{
    ScenarioOptions opt;
    opt.seed = 42;
    opt.traceName = "hotmail";
    auto stack = makeSpecWebScaleUp(opt);
    stack->learnDayOne();
    DejaVuPolicy policy(*stack->service, *stack->controller);
    const ExperimentResult r = stack->experiment->run(policy);

    // §4.2: QoS stays above the 95% floor almost always and savings
    // land in the 35-45% band (two allocation choices only).
    EXPECT_GT(r.meanQosPercent, 95.0);
    EXPECT_LT(r.sloViolationFraction, 0.08);
    EXPECT_GT(r.savingsPercent, 20.0);
    EXPECT_LT(r.savingsPercent, 55.0);
}

TEST_F(IntegrationTest, ScaleOutSavesMoreThanScaleUp)
{
    // §4.5: finer allocation granularity (1..10 instances vs L/XL)
    // yields higher savings.
    ScenarioOptions opt;
    opt.seed = 42;
    opt.traceName = "hotmail";
    auto scaleOut = makeCassandraScaleOut(opt);
    scaleOut->learnDayOne();
    DejaVuPolicy outPolicy(*scaleOut->service, *scaleOut->controller);
    const auto outResult = scaleOut->experiment->run(outPolicy);

    auto scaleUp = makeSpecWebScaleUp(opt);
    scaleUp->learnDayOne();
    DejaVuPolicy upPolicy(*scaleUp->service, *scaleUp->controller);
    const auto upResult = scaleUp->experiment->run(upPolicy);

    EXPECT_GT(outResult.savingsPercent, upResult.savingsPercent);
}

TEST_F(IntegrationTest, DeterministicAcrossRuns)
{
    ScenarioOptions opt;
    opt.seed = 1234;
    auto run = [&] {
        auto stack = makeCassandraScaleOut(opt);
        stack->learnDayOne();
        DejaVuPolicy policy(*stack->service, *stack->controller);
        return stack->experiment->run(policy);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.costDollars, b.costDollars);
    EXPECT_DOUBLE_EQ(a.sloViolationFraction, b.sloViolationFraction);
    EXPECT_EQ(a.instances.size(), b.instances.size());
}

TEST_F(IntegrationTest, InterferenceDetectionProtectsSlo)
{
    // Figure 11: with detection on, the SLO holds under 10-20%
    // co-located load; with it off, violations dominate.
    auto runWith = [](bool detection) {
        ScenarioOptions opt;
        opt.seed = 42;
        opt.traceName = "messenger";
        opt.interference = true;
        opt.interferenceDetection = detection;
        auto stack = makeCassandraScaleOut(opt);
        stack->injector->start();
        stack->learnDayOne();
        DejaVuPolicy policy(*stack->service, *stack->controller);
        return stack->experiment->run(policy);
    };
    const auto on = runWith(true);
    const auto off = runWith(false);
    EXPECT_LT(on.sloViolationFraction, 0.2);
    EXPECT_GT(off.sloViolationFraction,
              2.0 * on.sloViolationFraction);
}

TEST_F(IntegrationTest, InterferenceCostsExtraResources)
{
    auto runWith = [](bool interference) {
        ScenarioOptions opt;
        opt.seed = 42;
        opt.traceName = "messenger";
        opt.interference = interference;
        auto stack = makeCassandraScaleOut(opt);
        if (stack->injector)
            stack->injector->start();
        stack->learnDayOne();
        DejaVuPolicy policy(*stack->service, *stack->controller);
        return stack->experiment->run(policy);
    };
    const auto clean = runWith(false);
    const auto noisy = runWith(true);
    // Figure 11(b): DejaVu provisions more under interference.
    EXPECT_GT(noisy.costDollars, clean.costDollars);
}

TEST_F(IntegrationTest, AdaptiveAllocationSavesEnergy)
{
    // §1: consolidating onto fewer instances lets the rest power
    // down; the energy meter must show savings alongside dollars.
    ScenarioOptions opt;
    opt.seed = 42;
    opt.traceName = "messenger";
    auto stack = makeCassandraScaleOut(opt);
    stack->learnDayOne();
    DejaVuPolicy policy(*stack->service, *stack->controller);
    const auto r = stack->experiment->run(policy);
    EXPECT_GT(r.energyKwh, 0.0);
    EXPECT_GT(r.maxEnergyKwh, r.energyKwh);
    EXPECT_GT(r.energySavingsPercent, 15.0);
    // Dollar savings exceed energy savings: busy instances still
    // draw dynamic power, while stopped ones cost nothing.
    EXPECT_GT(r.savingsPercent, r.energySavingsPercent - 10.0);
}

TEST_F(IntegrationTest, ExperimentSeriesAreComplete)
{
    ScenarioOptions opt;
    opt.seed = 9;
    opt.days = 3;
    auto stack = makeCassandraScaleOut(opt);
    stack->learnDayOne();
    DejaVuPolicy policy(*stack->service, *stack->controller);
    const auto r = stack->experiment->run(policy);
    EXPECT_EQ(r.latencyMs.size(), r.instances.size());
    EXPECT_EQ(r.latencyMs.size(), r.loadFraction.size());
    EXPECT_GT(r.latencyMs.size(), 3u * 24 * 50);  // ~60 ticks/hour
    // Time stamps are monotone.
    for (std::size_t i = 1; i < r.latencyMs.size(); ++i)
        EXPECT_GE(r.latencyMs[i].timeHours,
                  r.latencyMs[i - 1].timeHours);
}

// --------------------------------------------------------------------
// Golden run outcomes: three seed-42 standard cells pinned to the
// exact (hex-float) result fields a case-study figure reads. Any
// change to what a single-service run computes — sampling, wiring,
// control, recording — moves one of them.
// --------------------------------------------------------------------

using ProvisioningExperimentTest = QuietLogs;

std::string
goldenCellDigest(const std::string &scenario, const std::string &policy)
{
    const ExperimentResult r = runStandardCell({scenario, policy, 42});
    char digest[512];
    std::snprintf(digest, sizeof digest,
                  "policy,%s\ncost,%a\nsavings_pct,%a\nslo_violation,%a\n"
                  "mean_latency_ms,%a\np95_latency_ms,%a\n"
                  "mean_qos_pct,%a\nenergy_kwh,%a\nadaptations,%zu\n"
                  "adaptation_mean_s,%a\nseries,%zu\n",
                  r.policyName.c_str(), r.costDollars, r.savingsPercent,
                  r.sloViolationFraction, r.meanLatencyMs,
                  r.p95LatencyMs, r.meanQosPercent, r.energyKwh,
                  r.adaptationSec.count(), r.adaptationSec.mean(),
                  r.latencyMs.size());
    return digest;
}

TEST_F(ProvisioningExperimentTest, GoldenRunCassandraMessengerDejaVu)
{
    EXPECT_EQ(goldenCellDigest("cassandra-messenger", "dejavu"),
              "policy,dejavu\n"
              "cost,0x1.e37cd2eaac6ap+7\n"
              "savings_pct,0x1.94fe696f1f7a9p+5\n"
              "slo_violation,0x1.480f2b9d6480fp-6\n"
              "mean_latency_ms,0x1.9d8daf6083781p+4\n"
              "p95_latency_ms,0x1.8557e4f5cd9a7p+5\n"
              "mean_qos_pct,0x1.8df31cadd0f13p+6\n"
              "energy_kwh,0x1.f46c7d80025dep+6\n"
              "adaptations,144\n"
              "adaptation_mean_s,0x1.419999999999ap+3\n"
              "series,10080\n");
}

TEST_F(ProvisioningExperimentTest, GoldenRunCassandraInterferenceDejaVu)
{
    EXPECT_EQ(goldenCellDigest("cassandra-messenger+interference",
                               "dejavu"),
              "policy,dejavu\n"
              "cost,0x1.126e4e4773d36p+8\n"
              "savings_pct,0x1.5f9561f9add3dp+5\n"
              "slo_violation,0x1.6222222222222p-4\n"
              "mean_latency_ms,0x1.8907e33659844p+5\n"
              "p95_latency_ms,0x1.f92967394eb08p+6\n"
              "mean_qos_pct,0x1.8c45011c6a43bp+6\n"
              "energy_kwh,0x1.2e58c09831e2ap+7\n"
              "adaptations,144\n"
              "adaptation_mean_s,0x1.419999999999ap+3\n"
              "series,10080\n");
}

TEST_F(ProvisioningExperimentTest, GoldenRunSpecWebRightScale)
{
    // A policy that reacts to monitor ticks, not only to changes.
    EXPECT_EQ(goldenCellDigest("specweb-hotmail", "rightscale-3m"),
              "policy,rightscale\n"
              "cost,0x1.5af851eb851ebp+8\n"
              "savings_pct,0x1.02438e38e38e4p+6\n"
              "slo_violation,0x1.1111111111111p-10\n"
              "mean_latency_ms,0x1.4546f180b70fp+6\n"
              "p95_latency_ms,0x1.f52ea1d9c0c78p+6\n"
              "mean_qos_pct,0x1.8de77f4e7639cp+6\n"
              "energy_kwh,0x1.7c8ed8a418524p+7\n"
              "adaptations,144\n"
              "adaptation_mean_s,0x1.3600000000003p+5\n"
              "series,10080\n");
}

/**
 * The Cassandra/messenger case study (seed 42) wired by hand the way
 * FleetExperiment::run wires a member, so the test holds the
 * MetricsRecorder — plus a reference sampler that a second listener
 * on the same member fills with every reuse-window latency.
 */
struct RecordedRun
{
    std::unique_ptr<ScenarioStack> stack;
    std::unique_ptr<DejaVuPolicy> policy;
    std::unique_ptr<TraceDriver> driver;
    std::unique_ptr<FleetSampler> sampler;
    std::unique_ptr<MetricsRecorder> recorder;
    PercentileSampler reuseLatency;
};

std::unique_ptr<RecordedRun>
recordMessengerRun(bool recordSeries)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    auto run = std::make_unique<RecordedRun>();
    ScenarioOptions opt;
    opt.seed = 42;
    opt.traceName = "messenger";
    run->stack = makeCassandraScaleOut(opt);
    ScenarioStack &stack = *run->stack;
    stack.learnDayOne();
    run->policy =
        std::make_unique<DejaVuPolicy>(*stack.service, *stack.controller);

    const ProvisioningExperiment::Config &cfg =
        stack.experiment->config();
    Service &service = *stack.service;
    if (service.cluster().target() != cfg.learningAllocation) {
        service.cluster().deploy(cfg.learningAllocation);
        service.onReconfigure();
    }
    run->driver = std::make_unique<TraceDriver>(
        *stack.sim, service, stack.experiment->trace(),
        TraceDriver::Config{cfg.totalHours, cfg.peakClients});
    run->sampler = std::make_unique<FleetSampler>(*stack.sim);
    const std::size_t member = run->sampler->registerService(
        service, *run->driver,
        FleetSampler::Cadence{cfg.monitorPeriod, cfg.postChangeProbe});
    DejaVuPolicy &policy = *run->policy;
    run->driver->addListener(
        [&policy, reuseStart = cfg.reuseStartHour](int hour,
                                                   const Workload &w) {
            if (hour >= reuseStart)
                policy.onWorkloadChange(w);
        });
    run->sampler->addListener(
        member, [&policy](int, const Service::PerfSample &s) {
            policy.onMonitorTick(s);
        });
    run->recorder = std::make_unique<MetricsRecorder>(
        *stack.sim, service, stack.experiment->trace(), *run->driver,
        *run->sampler, member,
        MetricsRecorder::Config{cfg.reuseStartHour, cfg.slo,
                                recordSeries});
    run->recorder->setMaxAllocation(service.cluster().maxAllocation());
    run->sampler->addListener(
        member,
        [sampler = &run->reuseLatency, reuseStart = cfg.reuseStartHour](
            int hour, const Service::PerfSample &s) {
            if (hour >= reuseStart)
                sampler->add(s.meanLatencyMs);
        });
    stack.sim->runUntil(cfg.totalHours * static_cast<SimTime>(kHour));
    setLogLevel(before);
    return run;
}

TEST(MetricsRecorder, FinishIsIdempotent)
{
    for (const bool series : {true, false}) {
        const auto run = recordMessengerRun(series);
        const ExperimentResult first = run->recorder->finish();
        const ExperimentResult second = run->recorder->finish();
        EXPECT_EQ(first.meanLatencyMs, second.meanLatencyMs) << series;
        EXPECT_EQ(std::isnan(first.p95LatencyMs), !series);
        if (series)
            EXPECT_EQ(first.p95LatencyMs, second.p95LatencyMs);
        else
            EXPECT_TRUE(std::isnan(second.p95LatencyMs));
        EXPECT_EQ(first.meanQosPercent, second.meanQosPercent);
        EXPECT_EQ(first.sloViolationFraction,
                  second.sloViolationFraction);
        EXPECT_EQ(first.costDollars, second.costDollars);
        EXPECT_EQ(first.energyKwh, second.energyKwh);
        EXPECT_EQ(first.latencyMs.size(), second.latencyMs.size());
    }
}

TEST(MetricsRecorder, ReuseStatsMatchAPerTickSampler)
{
    // With series, mean and p95 are exactly those of a sampler that
    // kept every reuse-window latency.
    const auto on = recordMessengerRun(true);
    const ExperimentResult withSeries = on->recorder->finish();
    ASSERT_GT(on->reuseLatency.count(), 1000u);
    const double mean = on->reuseLatency.mean();  // insertion order
    EXPECT_EQ(withSeries.meanLatencyMs, mean);
    EXPECT_EQ(withSeries.p95LatencyMs, on->reuseLatency.quantile(0.95));

    // Without series, the same run keeps the mean and has no p95.
    const auto off = recordMessengerRun(false);
    const ExperimentResult noSeries = off->recorder->finish();
    EXPECT_TRUE(noSeries.latencyMs.empty());
    EXPECT_EQ(off->reuseLatency.count(), on->reuseLatency.count());
    EXPECT_EQ(noSeries.meanLatencyMs, off->reuseLatency.mean());
    EXPECT_EQ(noSeries.meanLatencyMs, mean);
    EXPECT_TRUE(std::isnan(noSeries.p95LatencyMs));
}

} // namespace
} // namespace dejavu
