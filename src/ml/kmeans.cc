#include "ml/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/arena.hh"
#include "common/logging.hh"

namespace dejavu {

namespace {

/**
 * Mean silhouette coefficient of an assignment, reading the distance
 * between instances i and j from @p distance(i, j). Both callers
 * supply the same operands in the same order, so they agree to the
 * last bit.
 */
template <typename Distance>
double
silhouetteOf(int n, const std::vector<int> &assignment, int k,
             Distance &&distance)
{
    DEJAVU_ASSERT(static_cast<int>(assignment.size()) == n,
                  "assignment size mismatch");
    if (k < 2 || n < 3)
        return 0.0;

    std::vector<int> counts(static_cast<std::size_t>(k), 0);
    for (int c : assignment)
        ++counts[static_cast<std::size_t>(c)];

    double total = 0.0;
    int contributors = 0;
    std::vector<double> meanDist(static_cast<std::size_t>(k));
    for (int i = 0; i < n; ++i) {
        const int ci = assignment[static_cast<std::size_t>(i)];
        if (counts[static_cast<std::size_t>(ci)] <= 1) {
            // Singleton clusters contribute silhouette 0 by convention.
            ++contributors;
            continue;
        }
        // Mean distance to own cluster (a) and nearest other (b).
        std::fill(meanDist.begin(), meanDist.end(), 0.0);
        for (int j = 0; j < n; ++j) {
            if (j == i)
                continue;
            meanDist[static_cast<std::size_t>(
                assignment[static_cast<std::size_t>(j)])] +=
                distance(i, j);
        }
        double a = 0.0;
        double b = std::numeric_limits<double>::max();
        for (int c = 0; c < k; ++c) {
            const int cnt = counts[static_cast<std::size_t>(c)];
            if (c == ci) {
                a = meanDist[static_cast<std::size_t>(c)] / (cnt - 1);
            } else if (cnt > 0) {
                b = std::min(
                    b, meanDist[static_cast<std::size_t>(c)] / cnt);
            }
        }
        const double denom = std::max(a, b);
        if (denom > 1e-300)
            total += (b - a) / denom;
        ++contributors;
    }
    return contributors ? total / contributors : 0.0;
}

/**
 * Row-major copy of a dataset's instances: the kernels below walk one
 * block and make no out-of-line call per distance, so their speed
 * does not hinge on where the linker places Dataset's code.
 */
FlatMatrix
pointsOf(const Dataset &data)
{
    FlatMatrix points;
    points.reset(static_cast<std::size_t>(data.size()),
                 static_cast<std::size_t>(data.numAttributes()));
    for (int i = 0; i < data.size(); ++i) {
        const std::vector<double> &x = data.instance(i);
        DEJAVU_ASSERT(x.size() == points.cols(), "dimension mismatch");
        std::copy(x.begin(), x.end(),
                  points.row(static_cast<std::size_t>(i)));
    }
    return points;
}

/** Squared distance between two rows of @p dim values, summed in
 *  dimension order: bit-identical to KMeans::squaredDistance(). */
inline double
rowSquaredDistance(const double *a, const double *b, std::size_t dim)
{
    double d = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        const double e = a[i] - b[i];
        d += e * e;
    }
    return d;
}

/**
 * out[j] = rowSquaredDistance(pairOf(j).first, pairOf(j).second)
 * for every j < count. Four pairs go at a time, each with its own
 * accumulator summed in dimension order, so every result is the
 * single-pair value bit for bit while the four chains overlap.
 */
template <typename PairOf>
void
squaredDistances(std::size_t count, std::size_t dim, PairOf &&pairOf,
                 double *out)
{
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
        const auto [a0, b0] = pairOf(j);
        const auto [a1, b1] = pairOf(j + 1);
        const auto [a2, b2] = pairOf(j + 2);
        const auto [a3, b3] = pairOf(j + 3);
        double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            const double e0 = a0[i] - b0[i];
            const double e1 = a1[i] - b1[i];
            const double e2 = a2[i] - b2[i];
            const double e3 = a3[i] - b3[i];
            d0 += e0 * e0;
            d1 += e1 * e1;
            d2 += e2 * e2;
            d3 += e3 * e3;
        }
        out[j] = d0;
        out[j + 1] = d1;
        out[j + 2] = d2;
        out[j + 3] = d3;
    }
    for (; j < count; ++j) {
        const auto [a, b] = pairOf(j);
        out[j] = rowSquaredDistance(a, b, dim);
    }
}

/** out[i] = squared distance of point i to @p centre, every point. */
void
distancesTo(const FlatMatrix &points, const double *centre, double *out)
{
    squaredDistances(points.rows(), points.cols(),
                     [&points, centre](std::size_t i) {
                         return std::make_pair(points.row(i), centre);
                     },
                     out);
}

/**
 * All pairwise Euclidean distances, n x n. A squared difference does
 * not depend on operand order, so each pair is computed once and
 * mirrored.
 */
FlatMatrix
distanceMatrix(const FlatMatrix &points)
{
    const std::size_t n = points.rows();
    FlatMatrix distances;
    distances.reset(n, n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        double *row = distances.row(i);
        const double *x = points.row(i);
        squaredDistances(n - i - 1, points.cols(),
                         [&points, x, i](std::size_t j) {
                             return std::make_pair(x,
                                                   points.row(i + 1 + j));
                         },
                         row + i + 1);
        for (std::size_t j = i + 1; j < n; ++j) {
            row[j] = std::sqrt(row[j]);
            distances.row(j)[i] = row[j];
        }
    }
    return distances;
}

/** One Lloyd run's outcome, centroids kept flat (k x d). */
struct Restart
{
    FlatMatrix centroids;
    std::vector<int> assignment;
    std::vector<int> medoids;
    double inertia = 0.0;
};

/** Working storage reused by every restart of one bestOf(). */
struct Buffers
{
    FlatMatrix sums;              ///< k x d update sums.
    std::vector<int> counts;      ///< Members per cluster.
    std::vector<double> minDist;  ///< Seeding: per point.
    /** Point-to-centroid distances, centroid-major (c * n + i). */
    std::vector<double> distances;
};

/** k-means++ seeding into @p centroids (k x d). */
void
seedPlusPlus(const FlatMatrix &points, int k, Rng &rng,
             FlatMatrix &centroids, Buffers &buffers)
{
    const int n = static_cast<int>(points.rows());
    const std::size_t dim = points.cols();
    centroids.reset(static_cast<std::size_t>(k), dim);
    auto choose = [&](int c, int i) {
        const double *x = points.row(static_cast<std::size_t>(i));
        std::copy(x, x + dim, centroids.row(static_cast<std::size_t>(c)));
    };
    choose(0, rng.uniformInt(0, n - 1));

    std::vector<double> &minDist = buffers.minDist;
    std::vector<double> &d = buffers.distances;
    minDist.assign(static_cast<std::size_t>(n),
                   std::numeric_limits<double>::max());
    d.resize(static_cast<std::size_t>(n));
    for (int c = 1; c < k; ++c) {
        distancesTo(points,
                    centroids.row(static_cast<std::size_t>(c - 1)),
                    d.data());
        double total = 0.0;
        for (std::size_t i = 0; i < minDist.size(); ++i) {
            minDist[i] = std::min(minDist[i], d[i]);
            total += minDist[i];
        }
        if (total <= 1e-300) {
            // All points coincide with chosen centroids; duplicate one.
            choose(c, rng.uniformInt(0, n - 1));
            continue;
        }
        double draw = rng.uniform(0.0, total);
        int chosen = n - 1;
        for (int i = 0; i < n; ++i) {
            draw -= minDist[static_cast<std::size_t>(i)];
            if (draw <= 0.0) {
                chosen = i;
                break;
            }
        }
        choose(c, chosen);
    }
}

/** One seeded Lloyd run into @p out. */
void
runOnce(const FlatMatrix &points, int k, Rng &rng, int maxIterations,
        Buffers &buffers, Restart &out)
{
    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    const auto kk = static_cast<std::size_t>(k);
    seedPlusPlus(points, k, rng, out.centroids, buffers);
    out.assignment.assign(n, 0);

    std::vector<double> &d = buffers.distances;
    for (int iter = 0; iter < maxIterations; ++iter) {
        bool changed = false;
        // Assignment step: the nearest centroid, first on ties.
        d.resize(kk * n);
        for (std::size_t c = 0; c < kk; ++c)
            distancesTo(points, out.centroids.row(c), d.data() + c * n);
        for (std::size_t i = 0; i < n; ++i) {
            int best = 0;
            double bestD = std::numeric_limits<double>::max();
            for (std::size_t c = 0; c < kk; ++c) {
                if (d[c * n + i] < bestD) {
                    bestD = d[c * n + i];
                    best = static_cast<int>(c);
                }
            }
            if (out.assignment[i] != best) {
                out.assignment[i] = best;
                changed = true;
            }
        }
        // Update step.
        buffers.sums.reset(kk, dim);
        buffers.counts.assign(kk, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::size_t>(out.assignment[i]);
            ++buffers.counts[c];
            double *sum = buffers.sums.row(c);
            const double *x = points.row(i);
            for (std::size_t j = 0; j < dim; ++j)
                sum[j] += x[j];
        }
        for (std::size_t c = 0; c < kk; ++c) {
            const int count = buffers.counts[c];
            if (count == 0)
                continue;  // keep the old centroid for empty clusters
            const double *sum = buffers.sums.row(c);
            double *centroid = out.centroids.row(c);
            for (std::size_t j = 0; j < dim; ++j)
                centroid[j] = sum[j] / count;
        }
        if (!changed)
            break;
    }

    // Inertia and medoids.
    d.resize(n);
    squaredDistances(n, dim,
                     [&points, &out](std::size_t i) {
                         return std::make_pair(
                             points.row(i),
                             out.centroids.row(static_cast<std::size_t>(
                                 out.assignment[i])));
                     },
                     d.data());
    out.inertia = 0.0;
    out.medoids.assign(kk, -1);
    std::vector<double> medoidDist(kk,
                                   std::numeric_limits<double>::max());
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(out.assignment[i]);
        out.inertia += d[i];
        if (d[i] < medoidDist[c]) {
            medoidDist[c] = d[i];
            out.medoids[c] = static_cast<int>(i);
        }
    }
}

/** The lowest-inertia of config.restarts runs, with its silhouette
 *  read from the precomputed pairwise @p distances (n x n). */
Clustering
bestOf(const FlatMatrix &points, int k, const FlatMatrix &distances,
       Rng &rng, const KMeans::Config &config)
{
    const int n = static_cast<int>(points.rows());
    DEJAVU_ASSERT(k >= 1 && k <= n, "k=", k, " out of range for n=", n);
    Buffers buffers;
    Restart best, current;
    double bestInertia = std::numeric_limits<double>::max();
    for (int r = 0; r < config.restarts; ++r) {
        runOnce(points, k, rng, config.maxIterations, buffers, current);
        if (current.inertia < bestInertia) {
            bestInertia = current.inertia;
            std::swap(best, current);
        }
    }

    Clustering result;
    result.k = k;
    result.centroids.reserve(best.centroids.rows());
    for (std::size_t c = 0; c < best.centroids.rows(); ++c)
        result.centroids.emplace_back(
            best.centroids.row(c),
            best.centroids.row(c) + best.centroids.cols());
    result.assignment = std::move(best.assignment);
    result.inertia = best.inertia;
    result.medoids = std::move(best.medoids);
    result.silhouette = silhouetteOf(
        n, result.assignment, k,
        [&distances](int i, int j) {
            return distances.at(static_cast<std::size_t>(i),
                                static_cast<std::size_t>(j));
        });
    return result;
}

} // namespace

KMeans::KMeans(Rng rng)
    : KMeans(rng, Config())
{
}

KMeans::KMeans(Rng rng, Config config)
    : _rng(rng), _config(config)
{
    DEJAVU_ASSERT(_config.maxIterations >= 1, "bad max iterations");
    DEJAVU_ASSERT(_config.restarts >= 1, "bad restarts");
    DEJAVU_ASSERT(_config.autoKMin >= 1 &&
                  _config.autoKMax >= _config.autoKMin, "bad k range");
}

double
KMeans::squaredDistance(const std::vector<double> &a,
                        const std::vector<double> &b)
{
    DEJAVU_ASSERT(a.size() == b.size(), "dimension mismatch");
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

double
KMeans::squaredDistance(const std::vector<double> &a, const double *b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

Clustering
KMeans::run(const Dataset &data, int k)
{
    DEJAVU_ASSERT(!data.empty(), "cannot cluster an empty dataset");
    const FlatMatrix points = pointsOf(data);
    return bestOf(points, k, distanceMatrix(points), _rng, _config);
}

Clustering
KMeans::runAuto(const Dataset &data)
{
    DEJAVU_ASSERT(data.size() >= 2, "need >= 2 instances for auto-k");
    const int kMin = _config.autoKMin;
    const int kMax = std::min(_config.autoKMax, data.size() - 1);
    DEJAVU_ASSERT(kMax >= kMin, "k range empty for n=", data.size());
    const FlatMatrix points = pointsOf(data);
    // Every candidate k scores its winner against the same pairwise
    // distances; built once here, freed on return.
    const FlatMatrix distances = distanceMatrix(points);

    if (_config.criterion == AutoKCriterion::ExplainedVariance) {
        // Total within-cluster scatter at k=1 (variance * n).
        const std::size_t dim = points.cols();
        std::vector<double> mean(dim, 0.0);
        for (std::size_t i = 0; i < points.rows(); ++i) {
            const double *x = points.row(i);
            for (std::size_t d = 0; d < dim; ++d)
                mean[d] += x[d];
        }
        for (double &m : mean)
            m /= data.size();
        double total = 0.0;
        for (std::size_t i = 0; i < points.rows(); ++i)
            total += rowSquaredDistance(points.row(i), mean.data(), dim);
        if (total <= 1e-300)  // all points identical
            return bestOf(points, kMin, distances, _rng, _config);

        Clustering last;
        for (int k = kMin; k <= kMax; ++k) {
            last = bestOf(points, k, distances, _rng, _config);
            const double explained = 1.0 - last.inertia / total;
            if (explained >= _config.varianceExplained)
                return last;
        }
        return last;  // never reached the target: most classes wins
    }

    Clustering best;
    double bestScore = -2.0;
    for (int k = kMin; k <= kMax; ++k) {
        Clustering c = bestOf(points, k, distances, _rng, _config);
        // Prefer smaller k on (near-)ties: every extra class costs a
        // tuning run, so demand a real silhouette gain to grow k.
        const double score = c.silhouette - 0.003 * k;
        if (score > bestScore + 1e-9) {
            bestScore = score;
            best = std::move(c);
        }
    }
    return best;
}

double
KMeans::meanSilhouette(const Dataset &data,
                       const std::vector<int> &assignment, int k)
{
    return silhouetteOf(data.size(), assignment, k, [&data](int i, int j) {
        return std::sqrt(
            squaredDistance(data.instance(i), data.instance(j)));
    });
}

} // namespace dejavu
