/**
 * @file
 * Unit tests for workload-class identification
 * (core/clustering_engine.hh) — the §3.4 pipeline: profile, select
 * features, cluster, pick representatives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "core/clustering_engine.hh"
#include "counters/counter_model.hh"
#include "counters/monitor.hh"
#include "experiments/actors.hh"
#include "services/keyvalue_service.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "workload/trace_library.hh"

namespace dejavu {
namespace {

class ClusteringEngineTest : public ::testing::Test
{
  protected:
    EventQueue queue;
    Cluster cluster{queue, {}};
    KeyValueService service{queue, cluster, Rng(3)};
    Monitor monitor{service, CounterModel(ServiceKind::KeyValue, Rng(5))};

    /** Profiling samples at a few distinct load plateaus. */
    std::vector<MetricSample> plateauSamples(int trialsPerLevel)
    {
        std::vector<MetricSample> samples;
        for (double clients : {3000.0, 3100.0, 15000.0, 15200.0,
                               33000.0, 33500.0}) {
            for (int t = 0; t < trialsPerLevel; ++t)
                samples.push_back(monitor.collect(
                    {cassandraUpdateHeavy(), clients}));
        }
        return samples;
    }
};

TEST_F(ClusteringEngineTest, IdentifiesPlateausAsClasses)
{
    ClusteringEngine engine(Rng(7));
    const auto result = engine.identifyClasses(plateauSamples(4));
    // Three load plateaus -> three (or marginally more) classes.
    EXPECT_GE(result.clustering.k, 3);
    EXPECT_LE(result.clustering.k, 4);
}

TEST_F(ClusteringEngineTest, SamePlateauLandsInSameClass)
{
    ClusteringEngine engine(Rng(9));
    const auto result = engine.identifyClasses(plateauSamples(4));
    const auto &assign = result.clustering.assignment;
    // Samples 0..7 are ~3000 clients: all in one class.
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(assign[static_cast<std::size_t>(i)], assign[0]);
    // Samples 16..23 are ~33000 clients: a different class.
    EXPECT_NE(assign[16], assign[0]);
}

TEST_F(ClusteringEngineTest, SchemaSelectsInformativeMetrics)
{
    ClusteringEngine engine(Rng(11));
    const auto result = engine.identifyClasses(plateauSamples(4));
    // Plateau data is so cleanly separable that CFS can justify a
    // single metric; on real diurnal traces it picks 5-8.
    EXPECT_GE(result.schema.size(), 1);
    // None of the pure-noise decoys may appear in the signature.
    for (const std::string &name : result.schema.names()) {
        EXPECT_NE(name, "white_noise");
        EXPECT_NE(name, "timer_tick");
        EXPECT_NE(name, "therm_trip");
        EXPECT_NE(name, "seg_reg_renames");
    }
}

TEST_F(ClusteringEngineTest, RepresentativesBelongToTheirClass)
{
    ClusteringEngine engine(Rng(13));
    const auto result = engine.identifyClasses(plateauSamples(4));
    for (int c = 0; c < result.clustering.k; ++c) {
        const int rep =
            result.representatives[static_cast<std::size_t>(c)];
        ASSERT_GE(rep, 0);
        EXPECT_EQ(result.clustering.assignment[
                      static_cast<std::size_t>(rep)], c);
    }
}

TEST_F(ClusteringEngineTest, MembersPartitionSamples)
{
    ClusteringEngine engine(Rng(15));
    const auto result = engine.identifyClasses(plateauSamples(3));
    std::set<int> seen;
    std::size_t total = 0;
    for (const auto &cls : result.members) {
        total += cls.size();
        for (int idx : cls)
            EXPECT_TRUE(seen.insert(idx).second)
                << "sample in two classes";
    }
    EXPECT_EQ(total, 18u);
}

TEST_F(ClusteringEngineTest, LabeledDatasetMatchesAssignment)
{
    ClusteringEngine engine(Rng(17));
    const auto result = engine.identifyClasses(plateauSamples(3));
    ASSERT_EQ(result.labeledSignatures.size(),
              static_cast<int>(result.clustering.assignment.size()));
    for (int i = 0; i < result.labeledSignatures.size(); ++i)
        EXPECT_EQ(result.labeledSignatures.label(i),
                  result.clustering.assignment[
                      static_cast<std::size_t>(i)]);
}

TEST_F(ClusteringEngineTest, DeterministicGivenSeed)
{
    ClusteringEngine a(Rng(21)), b(Rng(21));
    // Use a fresh monitor stream per engine so inputs are identical.
    Monitor m1(service, CounterModel(ServiceKind::KeyValue, Rng(23)));
    Monitor m2(service, CounterModel(ServiceKind::KeyValue, Rng(23)));
    std::vector<MetricSample> s1, s2;
    for (double clients : {4000.0, 20000.0, 35000.0}) {
        for (int t = 0; t < 4; ++t) {
            s1.push_back(m1.collect({cassandraUpdateHeavy(), clients}));
            s2.push_back(m2.collect({cassandraUpdateHeavy(), clients}));
        }
    }
    const auto ra = a.identifyClasses(s1);
    const auto rb = b.identifyClasses(s2);
    EXPECT_EQ(ra.clustering.k, rb.clustering.k);
    EXPECT_EQ(ra.clustering.assignment, rb.clustering.assignment);
    EXPECT_EQ(ra.schema.indices(), rb.schema.indices());
}

/** Hex-float text: two doubles print alike iff they are the same
 *  bits. */
std::string
hexFloat(double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", v);
    return buffer;
}

TEST_F(ClusteringEngineTest, GoldenLearningPile)
{
    // One fleet member's learning pile: 24 hourly workloads of a
    // diurnal trace, each profiled trialsPerWorkload = 3 times. The
    // pinned class count, schema, assignment, medoids, silhouette and
    // centroids (as hex floats) are this pile's learning outcome, so
    // a change that moves one bit of learning fails here.
    const LoadTrace trace = makeMessengerTrace();
    std::vector<MetricSample> samples;
    for (int h = 0; h < 24; ++h) {
        const Workload w =
            TraceDriver::workloadFor(service, trace, 36000.0, h);
        for (int t = 0; t < 3; ++t)
            samples.push_back(monitor.collect(w));
    }
    ClusteringEngine engine(Rng(42));
    const auto result = engine.identifyClasses(samples);
    const Clustering &c = result.clustering;

    EXPECT_EQ(c.k, 3);
    EXPECT_EQ(result.schema.indices(),
              (std::vector<int>{0, 3, 4, 8, 10, 14, 17, 18, 19, 50}));
    // Hours 0-9 -> class 2, 10-17 -> 1, 18-21 -> 0, 22-23 -> 1.
    EXPECT_EQ(c.assignment, (std::vector<int>{
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}));
    EXPECT_EQ(c.medoids, (std::vector<int>{64, 42, 20}));
    EXPECT_EQ(hexFloat(c.silhouette), "0x1.6b404dde2a2dfp-1");
    std::vector<std::string> centroids;
    for (const auto &row : c.centroids)
        for (double v : row)
            centroids.push_back(hexFloat(v));
    EXPECT_EQ(centroids, (std::vector<std::string>{
        // class 0
        "-0x1.447dd77c3e88bp+0", "0x1.d537bccf710ddp+0",
        "0x1.9af49510250ep+0", "0x1.bd804f3c4e8ap+0",
        "0x1.c9f8e565524e3p+0", "0x1.b7234f23846c8p+0",
        "0x1.b2aad149d4638p+0", "0x1.bc4c5c8513e99p+0",
        "0x1.be351e2c60bd4p+0", "0x1.bcef937c58a05p+0",
        // class 1
        "-0x1.2eb4ee13afbf7p-1", "0x1.7c04d700d4103p-3",
        "0x1.85032baad0b2cp-2", "0x1.08109956e72f4p-2",
        "0x1.c5e157db80d32p-3", "0x1.1d5d183cb55c6p-2",
        "0x1.38e6cd63284afp-2", "0x1.05ec5463d5fc1p-2",
        "0x1.fe26d4155f06bp-3", "0x1.1e58fdabf81e1p-2",
        // class 2
        "0x1.192666d524164p+0", "-0x1.d660ffffc2a94p-1",
        "-0x1.05a2a0245c989p+0", "-0x1.e86ef2754c05ep-1",
        "-0x1.dfd90d7b220dap-1", "-0x1.edfdfea12b04cp-1",
        "-0x1.f82f41530adb4p-1", "-0x1.e6667435faea9p-1",
        "-0x1.e481005c0b8bfp-1", "-0x1.f31f5b3976293p-1"}));
}

TEST_F(ClusteringEngineTest, RejectsTooFewSamples)
{
    ClusteringEngine engine(Rng(25));
    std::vector<MetricSample> few = {
        monitor.collect({cassandraUpdateHeavy(), 1000.0})};
    EXPECT_DEATH(engine.identifyClasses(few), "at least 4");
}

} // namespace
} // namespace dejavu
