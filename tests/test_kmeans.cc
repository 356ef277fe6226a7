/**
 * @file
 * Unit tests for k-means clustering (ml/kmeans.hh).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.hh"
#include "ml/kmeans.hh"

namespace dejavu {
namespace {

/** Three well-separated 2-D Gaussian blobs. */
Dataset
blobs(int perCluster, std::uint64_t seed)
{
    Dataset d({"x", "y"});
    Rng rng(seed);
    const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    for (int c = 0; c < 3; ++c)
        for (int i = 0; i < perCluster; ++i)
            d.add({centers[c][0] + 0.3 * rng.gaussian(),
                   centers[c][1] + 0.3 * rng.gaussian()});
    return d;
}

/** The shape one fleet member clusters: 72 samples (24 hourly
 *  workloads x 3 trials) over 54 metrics. Four load levels move the
 *  first 20 metrics; the rest are noise. */
Dataset
learningPile(std::uint64_t seed)
{
    std::vector<std::string> names;
    for (int a = 0; a < 54; ++a)
        names.push_back("m" + std::to_string(a));
    Dataset d(names);
    Rng rng(seed);
    for (int i = 0; i < 72; ++i) {
        const int level = (i / 3) % 4;
        std::vector<double> x;
        for (int a = 0; a < 54; ++a)
            x.push_back((a < 20 ? 1.5 * level * (1 + a % 3) : 0.0)
                        + rng.gaussian());
        d.add(std::move(x));
    }
    return d;
}

TEST(KMeans, RecoversSeparatedBlobs)
{
    const Dataset d = blobs(30, 3);
    KMeans km(Rng(5));
    const Clustering c = km.run(d, 3);
    // Every ground-truth blob maps to exactly one cluster id.
    std::set<int> ids;
    for (int blob = 0; blob < 3; ++blob) {
        const int first = c.assignment[static_cast<std::size_t>(
            blob * 30)];
        for (int i = 0; i < 30; ++i)
            EXPECT_EQ(c.assignment[static_cast<std::size_t>(
                blob * 30 + i)], first);
        ids.insert(first);
    }
    EXPECT_EQ(ids.size(), 3u);
}

TEST(KMeans, SilhouetteHighForSeparatedData)
{
    const Dataset d = blobs(25, 7);
    KMeans km(Rng(9));
    const Clustering c = km.run(d, 3);
    EXPECT_GT(c.silhouette, 0.8);
}

TEST(KMeans, AutoKFindsThreeBlobs)
{
    const Dataset d = blobs(25, 11);
    KMeans::Config cfg;
    cfg.autoKMin = 2;
    cfg.autoKMax = 6;
    cfg.criterion = AutoKCriterion::Silhouette;
    KMeans km(Rng(13), cfg);
    EXPECT_EQ(km.runAuto(d).k, 3);
}

TEST(KMeans, AutoKExplainedVarianceFindsThreeBlobs)
{
    const Dataset d = blobs(25, 15);
    KMeans::Config cfg;
    cfg.autoKMin = 2;
    cfg.autoKMax = 6;
    cfg.criterion = AutoKCriterion::ExplainedVariance;
    cfg.varianceExplained = 0.95;
    KMeans km(Rng(17), cfg);
    EXPECT_EQ(km.runAuto(d).k, 3);
}

TEST(KMeans, MedoidsAreClusterMembers)
{
    const Dataset d = blobs(20, 19);
    KMeans km(Rng(21));
    const Clustering c = km.run(d, 3);
    for (int k = 0; k < 3; ++k) {
        const int m = c.medoids[static_cast<std::size_t>(k)];
        ASSERT_GE(m, 0);
        ASSERT_LT(m, d.size());
        EXPECT_EQ(c.assignment[static_cast<std::size_t>(m)], k);
    }
}

TEST(KMeans, InertiaDecreasesWithK)
{
    const Dataset d = blobs(20, 23);
    KMeans km(Rng(25));
    const double i2 = km.run(d, 2).inertia;
    const double i4 = km.run(d, 4).inertia;
    EXPECT_GT(i2, i4);
}

TEST(KMeans, SingleClusterCoversAll)
{
    const Dataset d = blobs(10, 27);
    KMeans km(Rng(29));
    const Clustering c = km.run(d, 1);
    for (int a : c.assignment)
        EXPECT_EQ(a, 0);
    EXPECT_DOUBLE_EQ(c.silhouette, 0.0);  // undefined => 0
}

TEST(KMeans, DeterministicForSameSeed)
{
    const Dataset d = blobs(20, 31);
    KMeans a(Rng(33)), b(Rng(33));
    const Clustering ca = a.run(d, 3);
    const Clustering cb = b.run(d, 3);
    EXPECT_EQ(ca.assignment, cb.assignment);
    EXPECT_DOUBLE_EQ(ca.inertia, cb.inertia);
}

TEST(KMeans, HandlesDuplicatePoints)
{
    Dataset d({"x"});
    for (int i = 0; i < 10; ++i)
        d.add({1.0});
    for (int i = 0; i < 10; ++i)
        d.add({2.0});
    KMeans km(Rng(35));
    const Clustering c = km.run(d, 2);
    EXPECT_EQ(c.k, 2);
    EXPECT_NEAR(c.inertia, 0.0, 1e-12);
}

TEST(KMeans, RunSilhouetteIsTheReferenceBitForBit)
{
    // run() reads its winner's silhouette from a distance matrix;
    // it must equal the from-scratch reference exactly, not nearly.
    for (const Dataset &d : {blobs(25, 7), learningPile(41)}) {
        KMeans km(Rng(9));
        for (int k = 2; k <= 5; ++k) {
            const Clustering c = km.run(d, k);
            EXPECT_GT(c.silhouette, 0.0) << "k=" << k;
            EXPECT_EQ(c.silhouette,
                      KMeans::meanSilhouette(d, c.assignment, c.k))
                << "k=" << k;
        }
    }
}

TEST(KMeans, AutoKSilhouetteIsTheReferenceBitForBit)
{
    // runAuto() shares one distance matrix across every k; the
    // silhouette it reports must be the reference's, bit for bit,
    // under both criteria.
    const std::vector<Dataset> piles = {blobs(25, 11), blobs(25, 15),
                                        blobs(20, 31), learningPile(41),
                                        learningPile(43)};
    for (const AutoKCriterion criterion :
         {AutoKCriterion::Silhouette,
          AutoKCriterion::ExplainedVariance}) {
        for (std::size_t p = 0; p < piles.size(); ++p) {
            const Dataset &d = piles[p];
            KMeans::Config cfg;
            cfg.autoKMin = 3;
            cfg.autoKMax = 6;
            cfg.criterion = criterion;
            KMeans km(Rng(45), cfg);
            const Clustering r = km.runAuto(d);
            EXPECT_GT(r.silhouette, 0.0) << "pile " << p;
            EXPECT_EQ(r.silhouette,
                      KMeans::meanSilhouette(d, r.assignment, r.k))
                << "pile " << p << " criterion "
                << static_cast<int>(criterion);
        }
    }
}

TEST(KMeans, SquaredDistance)
{
    EXPECT_DOUBLE_EQ(KMeans::squaredDistance({0.0, 0.0}, {3.0, 4.0}),
                     25.0);
    EXPECT_DOUBLE_EQ(KMeans::squaredDistance({1.0}, {1.0}), 0.0);
}

TEST(KMeansDeath, BadK)
{
    const Dataset d = blobs(5, 37);
    KMeans km(Rng(39));
    EXPECT_DEATH(km.run(d, 0), "out of range");
    EXPECT_DEATH(km.run(d, 1000), "out of range");
}

} // namespace
} // namespace dejavu
