/**
 * @file
 * Unit tests for k-means clustering (ml/kmeans.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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
    KMeans km(Rng(13), cfg);
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
    // silhouette it reports must be the reference's, bit for bit.
    const std::vector<Dataset> piles = {blobs(25, 11), blobs(25, 15),
                                        blobs(20, 31), learningPile(41),
                                        learningPile(43)};
    for (std::size_t p = 0; p < piles.size(); ++p) {
        const Dataset &d = piles[p];
        KMeans::Config cfg;
        cfg.autoKMin = 3;
        cfg.autoKMax = 6;
        KMeans km(Rng(45), cfg);
        const Clustering r = km.runAuto(d);
        EXPECT_GT(r.silhouette, 0.0) << "pile " << p;
        EXPECT_EQ(r.silhouette,
                  KMeans::meanSilhouette(d, r.assignment, r.k))
            << "pile " << p;
    }
}

/**
 * The k-means that run() and runAuto() must reproduce bit for bit:
 * k-means++ seeding, Lloyd iterations and best-of-restarts written
 * the plain way. Points stay rows of the Dataset, every distance is
 * measured afresh with KMeans::squaredDistance(), the update runs
 * after every pass, and the Rng is drawn in the same order.
 */
class ReferenceKMeans
{
  public:
    ReferenceKMeans(Rng rng, KMeans::Config config)
        : _rng(rng), _config(config)
    {
    }

    Clustering run(const Dataset &data, int k) { return bestOf(data, k); }

    Clustering runAuto(const Dataset &data)
    {
        const int kMin = _config.autoKMin;
        const int kMax = std::min(_config.autoKMax, data.size() - 1);
        Clustering best;
        double bestScore = -2.0;
        for (int k = kMin; k <= kMax; ++k) {
            Clustering c = bestOf(data, k);
            const double score = c.silhouette - 0.003 * k;
            if (score > bestScore + 1e-9) {
                bestScore = score;
                best = std::move(c);
            }
        }
        return best;
    }

  private:
    static constexpr double kMax = std::numeric_limits<double>::max();

    Clustering bestOf(const Dataset &data, int k)
    {
        Clustering best;
        double bestInertia = kMax;
        for (int r = 0; r < _config.restarts; ++r) {
            Clustering c = runOnce(data, k);
            if (c.inertia < bestInertia) {
                bestInertia = c.inertia;
                best = std::move(c);
            }
        }
        best.silhouette = KMeans::meanSilhouette(data, best.assignment, k);
        return best;
    }

    Clustering runOnce(const Dataset &data, int k)
    {
        const int n = data.size();
        const auto kk = static_cast<std::size_t>(k);
        const auto dim = static_cast<std::size_t>(data.numAttributes());
        Clustering out;
        out.k = k;
        std::vector<std::vector<double>> &centroids = out.centroids;
        centroids.push_back(data.instance(_rng.uniformInt(0, n - 1)));
        std::vector<double> minDist(static_cast<std::size_t>(n), kMax);
        for (int c = 1; c < k; ++c) {
            double total = 0.0;
            for (int i = 0; i < n; ++i) {
                double &m = minDist[static_cast<std::size_t>(i)];
                m = std::min(m, KMeans::squaredDistance(data.instance(i),
                                                        centroids.back()));
                total += m;
            }
            if (total <= 1e-300) {
                centroids.push_back(
                    data.instance(_rng.uniformInt(0, n - 1)));
                continue;
            }
            double draw = _rng.uniform(0.0, total);
            int chosen = n - 1;
            for (int i = 0; i < n; ++i) {
                draw -= minDist[static_cast<std::size_t>(i)];
                if (draw <= 0.0) {
                    chosen = i;
                    break;
                }
            }
            centroids.push_back(data.instance(chosen));
        }

        std::vector<int> &assignment = out.assignment;
        assignment.assign(static_cast<std::size_t>(n), 0);
        for (int iter = 0; iter < _config.maxIterations; ++iter) {
            bool changed = false;
            for (int i = 0; i < n; ++i) {
                int best = 0;
                double bestD = kMax;
                for (std::size_t c = 0; c < kk; ++c) {
                    const double d = KMeans::squaredDistance(
                        data.instance(i), centroids[c]);
                    if (d < bestD) {
                        bestD = d;
                        best = static_cast<int>(c);
                    }
                }
                if (assignment[static_cast<std::size_t>(i)] != best) {
                    assignment[static_cast<std::size_t>(i)] = best;
                    changed = true;
                }
            }
            std::vector<std::vector<double>> sums(
                kk, std::vector<double>(dim, 0.0));
            std::vector<int> counts(kk, 0);
            for (int i = 0; i < n; ++i) {
                const auto c = static_cast<std::size_t>(
                    assignment[static_cast<std::size_t>(i)]);
                ++counts[c];
                for (std::size_t j = 0; j < dim; ++j)
                    sums[c][j] += data.instance(i)[j];
            }
            for (std::size_t c = 0; c < kk; ++c) {
                if (counts[c] == 0)
                    continue;
                for (std::size_t j = 0; j < dim; ++j)
                    centroids[c][j] = sums[c][j] / counts[c];
            }
            if (!changed)
                break;
        }

        out.medoids.assign(kk, -1);
        std::vector<double> medoidDist(kk, kMax);
        for (int i = 0; i < n; ++i) {
            const auto c = static_cast<std::size_t>(
                assignment[static_cast<std::size_t>(i)]);
            const double d =
                KMeans::squaredDistance(data.instance(i), centroids[c]);
            out.inertia += d;
            if (d < medoidDist[c]) {
                medoidDist[c] = d;
                out.medoids[c] = i;
            }
        }
        return out;
    }

    Rng _rng;
    KMeans::Config _config;
};

/** n points in d dimensions around three centres, plus noise. */
Dataset
shapedPile(int n, int d, std::uint64_t seed)
{
    std::vector<std::string> names;
    for (int a = 0; a < d; ++a)
        names.push_back("m" + std::to_string(a));
    Dataset data(names);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        std::vector<double> x;
        for (int a = 0; a < d; ++a)
            x.push_back(2.0 * ((i + a) % 3) + rng.gaussian());
        data.add(std::move(x));
    }
    return data;
}

void
expectSameClustering(const Clustering &got, const Clustering &want,
                     const std::string &where)
{
    EXPECT_EQ(got.k, want.k) << where;
    EXPECT_EQ(got.assignment, want.assignment) << where;
    EXPECT_EQ(got.centroids, want.centroids) << where;
    EXPECT_EQ(got.inertia, want.inertia) << where;
    EXPECT_EQ(got.medoids, want.medoids) << where;
    EXPECT_EQ(got.silhouette, want.silhouette) << where;
}

TEST(KMeans, LloydMatchesTheReferenceBitForBit)
{
    std::vector<std::pair<std::string, Dataset>> piles;
    for (int n : {4, 7, 8, 9, 17, 72, 73})
        for (int d : {1, 3, 10, 54})
            piles.emplace_back(
                "n=" + std::to_string(n) + " d=" + std::to_string(d),
                shapedPile(n, d, static_cast<std::uint64_t>(n * 100 + d)));
    // Coinciding points: seeding takes its duplicate-seed path, and
    // the first pass leaves every point in cluster 0.
    Dataset same({"x", "y"});
    for (int i = 0; i < 9; ++i)
        same.add({1.5, -2.0});
    piles.emplace_back("coinciding", same);
    Dataset twoValues({"x"});
    for (int i = 0; i < 10; ++i)
        twoValues.add({i % 2 ? 1.0 : 2.0});
    piles.emplace_back("two values", twoValues);
    piles.emplace_back("learning pile", learningPile(41));

    for (const int maxIterations : {100, 1, 2}) {
        KMeans::Config cfg;
        cfg.maxIterations = maxIterations;
        for (const auto &[name, data] : piles) {
            const std::string at =
                name + " maxIterations=" + std::to_string(maxIterations);
            KMeans km(Rng(51), cfg);
            ReferenceKMeans ref(Rng(51), cfg);
            for (int k : {1, 2, 3, 6}) {
                if (k > data.size())
                    continue;
                expectSameClustering(km.run(data, k), ref.run(data, k),
                                     at + " k=" + std::to_string(k));
            }
            KMeans::Config autoCfg = cfg;
            autoCfg.autoKMin = std::min(3, data.size() - 1);
            autoCfg.autoKMax = 6;
            KMeans autoKm(Rng(53), autoCfg);
            ReferenceKMeans autoRef(Rng(53), autoCfg);
            expectSameClustering(autoKm.runAuto(data),
                                 autoRef.runAuto(data), at + " auto");
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
