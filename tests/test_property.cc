/**
 * @file
 * Property-based tests (parameterized sweeps): invariants that must
 * hold across whole parameter ranges, not just single points.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/interference_estimator.hh"
#include "core/tuner.hh"
#include "counters/counter_model.hh"
#include "counters/monitor.hh"
#include "counters/profiler.hh"
#include "ml/kmeans.hh"
#include "services/keyvalue_service.hh"
#include "services/perf_model.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "workload/trace_library.hh"

namespace dejavu {
namespace {

// --------------------------------------------------------------------
// Latency curve properties over a utilization sweep.
// --------------------------------------------------------------------

class LatencyCurveProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(LatencyCurveProperty, AtLeastBaseLatency)
{
    const double rho = GetParam();
    EXPECT_GE(PerfModel::meanLatencyMs(10.0, rho), 10.0);
}

TEST_P(LatencyCurveProperty, MonotoneInBaseLatency)
{
    const double rho = GetParam();
    EXPECT_LE(PerfModel::meanLatencyMs(5.0, rho),
              PerfModel::meanLatencyMs(15.0, rho));
}

TEST_P(LatencyCurveProperty, QosWithinBounds)
{
    const double rho = GetParam();
    const double q = PerfModel::qosPercent(rho);
    EXPECT_GE(q, 50.0);
    EXPECT_LE(q, 99.5);
}

INSTANTIATE_TEST_SUITE_P(UtilizationSweep, LatencyCurveProperty,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4, 0.55,
                                           0.7, 0.8, 0.9, 0.95, 1.0,
                                           1.1, 1.3));

// --------------------------------------------------------------------
// Counter-model properties over load levels.
// --------------------------------------------------------------------

struct CounterSweepParam
{
    double rate;
    ServiceKind kind;
};

class CounterModelProperty
    : public ::testing::TestWithParam<CounterSweepParam>
{
};

TEST_P(CounterModelProperty, RatesAreFiniteAndNonNegative)
{
    const auto p = GetParam();
    CounterModel model(p.kind, Rng(3));
    const auto rates =
        model.expectedRates(cassandraBalanced(), p.rate, p.rate / 800.0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        EXPECT_TRUE(std::isfinite(rates[i]))
            << hpcEventName(static_cast<HpcEvent>(i));
        EXPECT_GE(rates[i], 0.0)
            << hpcEventName(static_cast<HpcEvent>(i));
    }
}

TEST_P(CounterModelProperty, CpuCyclesMonotoneInLoad)
{
    const auto p = GetParam();
    CounterModel model(p.kind, Rng(5));
    const auto lo =
        model.expectedRates(cassandraBalanced(), p.rate, 0.2);
    const auto hi =
        model.expectedRates(cassandraBalanced(), p.rate * 2.0, 0.4);
    const auto idx = static_cast<std::size_t>(HpcEvent::CpuClkUnhalted);
    EXPECT_LT(lo[idx], hi[idx]);
}

INSTANTIATE_TEST_SUITE_P(
    LoadAndKindSweep, CounterModelProperty,
    ::testing::Values(CounterSweepParam{50.0, ServiceKind::KeyValue},
                      CounterSweepParam{200.0, ServiceKind::KeyValue},
                      CounterSweepParam{500.0, ServiceKind::KeyValue},
                      CounterSweepParam{50.0, ServiceKind::SpecWeb},
                      CounterSweepParam{200.0, ServiceKind::SpecWeb},
                      CounterSweepParam{500.0, ServiceKind::Rubis},
                      CounterSweepParam{200.0, ServiceKind::Rubis}));

// --------------------------------------------------------------------
// Signature normalization invariance across sampling durations.
// --------------------------------------------------------------------

class NormalizationProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(NormalizationProperty, DurationInvariantSignatures)
{
    const double durationSec = GetParam();
    EventQueue queue;
    Cluster cluster(queue, {});
    KeyValueService service(queue, cluster, Rng(7));
    service.setWorkload({cassandraUpdateHeavy(), 8000.0});

    CounterModel::Config quiet;
    quiet.noise = 0.0;
    quiet.decoyNoise = 0.0;

    Monitor::Config cfg;
    cfg.sampleDuration = seconds(durationSec);
    Monitor monitor(service,
                    CounterModel(ServiceKind::KeyValue, Rng(9), quiet),
                    cfg);
    Monitor::Config ref_cfg;
    ref_cfg.sampleDuration = seconds(10);
    Monitor reference(service,
                      CounterModel(ServiceKind::KeyValue, Rng(9),
                                   quiet),
                      ref_cfg);

    const auto a = monitor.collect();
    const auto b = reference.collect();
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        if (static_cast<HpcEvent>(i) == HpcEvent::Bogus2)
            continue;
        EXPECT_NEAR(a.values[i], b.values[i],
                    std::abs(b.values[i]) * 1e-6 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(DurationSweep, NormalizationProperty,
                         ::testing::Values(1.0, 5.0, 10.0, 30.0, 60.0,
                                           120.0));

// --------------------------------------------------------------------
// Tuner minimality across load levels.
// --------------------------------------------------------------------

class TunerProperty : public ::testing::TestWithParam<double>
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

TEST_P(TunerProperty, ChosenAllocationIsMinimalAndAdequate)
{
    const double clients = GetParam();
    Tuner tuner(profiler, Slo::latency(60.0), scaleOutSearchSpace(10));
    const Workload w{cassandraUpdateHeavy(), clients};
    const auto result = tuner.tune(w);
    if (!result.feasible)
        GTEST_SKIP() << "beyond full capacity";
    EXPECT_LE(service.hypotheticalLatencyMs(w, result.allocation),
              60.0);
    if (result.allocation.instances > 1) {
        ResourceAllocation smaller = result.allocation;
        --smaller.instances;
        // One step less must fail the (headroom-adjusted) target.
        EXPECT_GT(service.hypotheticalLatencyMs(w, smaller),
                  60.0 * 0.9);
    }
}

TEST_P(TunerProperty, InterferenceNeverReducesAllocation)
{
    const double clients = GetParam();
    Tuner tuner(profiler, Slo::latency(60.0), scaleOutSearchSpace(10));
    const Workload w{cassandraUpdateHeavy(), clients};
    const auto clean = tuner.tune(w, 0.0);
    const auto dirty = tuner.tune(w, 0.15);
    EXPECT_GE(dirty.allocation.instances, clean.allocation.instances);
}

INSTANTIATE_TEST_SUITE_P(ClientSweep, TunerProperty,
                         ::testing::Values(2000.0, 6000.0, 12000.0,
                                           20000.0, 28000.0, 36000.0,
                                           42000.0));

// --------------------------------------------------------------------
// Interference estimator bucket coherence across index values.
// --------------------------------------------------------------------

class BucketProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(BucketProperty, FloorIsConsistentWithBucketOf)
{
    const double index = GetParam();
    InterferenceEstimator est;
    const int bucket = est.bucketOf(index);
    // Bucket 0 covers everything at-or-below 1+tolerance, including
    // indices below 1 (production faster than isolation); the top
    // bucket absorbs everything beyond it (saturation episodes).
    if (bucket > 0) {
        EXPECT_GE(index, est.bucketFloor(bucket) - 1e-9);
        if (bucket < est.config().maxBucket) {
            EXPECT_LT(index, est.bucketFloor(bucket + 1) + 1e-9);
        }
    } else {
        EXPECT_LE(index, 1.0 + est.config().tolerance + 1e-9);
    }
}

TEST_P(BucketProperty, BucketMonotoneInIndex)
{
    const double index = GetParam();
    InterferenceEstimator est;
    EXPECT_LE(est.bucketOf(index), est.bucketOf(index + 0.3));
}

INSTANTIATE_TEST_SUITE_P(IndexSweep, BucketProperty,
                         ::testing::Values(0.5, 1.0, 1.1, 1.21, 1.35,
                                           1.5, 1.8, 2.2, 3.0, 5.0));

// --------------------------------------------------------------------
// Trace generator invariants across seeds.
// --------------------------------------------------------------------

class TraceProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceProperty, TracesNormalizedAndPositive)
{
    TraceOptions opt;
    opt.seed = GetParam();
    for (const LoadTrace &t :
         {makeMessengerTrace(opt), makeHotmailTrace(opt)}) {
        double mx = 0.0;
        for (std::size_t h = 0; h < t.hours(); ++h) {
            EXPECT_GT(t.at(h), 0.0);
            EXPECT_LE(t.at(h), 1.0);
            mx = std::max(mx, t.at(h));
        }
        EXPECT_DOUBLE_EQ(mx, 1.0);
    }
}

TEST_P(TraceProperty, EveryDayIsDiurnal)
{
    // Days deliberately differ in amplitude and peak phase (that is
    // what defeats Autopilot), but every day must keep a diurnal
    // structure: a clear peak-to-trough swing, with the trough in
    // the small hours.
    TraceOptions opt;
    opt.seed = GetParam();
    for (const LoadTrace &t :
         {makeMessengerTrace(opt), makeHotmailTrace(opt)}) {
        for (int day = 0; day < t.daysCovered(); ++day) {
            double mn = 1e9, mx = 0.0;
            int argmax = -1;
            for (int h = 0; h < 24; ++h) {
                const double v = t.at(day, h);
                mn = std::min(mn, v);
                if (v > mx) {
                    mx = v;
                    argmax = h;
                }
            }
            EXPECT_GT(mx / mn, 2.0)
                << t.name() << " day " << day << " lacks diurnality";
            EXPECT_GE(argmax, 7) << t.name() << " day " << day;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, TraceProperty,
                         ::testing::Values(1, 7, 42, 1337, 99999));

// --------------------------------------------------------------------
// KMeans recovers k over a sweep of blob counts.
// --------------------------------------------------------------------

class KMeansProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KMeansProperty, AutoKMatchesPlantedClusters)
{
    const int planted = GetParam();
    Dataset d({"x", "y"});
    Rng rng(17);
    for (int c = 0; c < planted; ++c)
        for (int i = 0; i < 25; ++i)
            d.add({c * 12.0 + 0.4 * rng.gaussian(),
                   (c % 2) * 9.0 + 0.4 * rng.gaussian()});
    KMeans::Config cfg;
    cfg.autoKMin = 2;
    cfg.autoKMax = 8;
    KMeans km(Rng(19), cfg);
    EXPECT_EQ(km.runAuto(d).k, planted);
}

INSTANTIATE_TEST_SUITE_P(BlobCountSweep, KMeansProperty,
                         ::testing::Values(2, 3, 4, 5, 6));

} // namespace
} // namespace dejavu
