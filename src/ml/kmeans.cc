#include "ml/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

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
 * All pairwise Euclidean distances, n x n. A squared difference does
 * not depend on operand order, so each pair is computed once and
 * mirrored.
 */
FlatMatrix
distanceMatrix(const Dataset &data)
{
    const auto n = static_cast<std::size_t>(data.size());
    FlatMatrix distances;
    distances.reset(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        double *row = distances.row(i);
        for (std::size_t j = i + 1; j < n; ++j) {
            const double d = std::sqrt(KMeans::squaredDistance(
                data.instance(static_cast<int>(i)),
                data.instance(static_cast<int>(j))));
            row[j] = d;
            distances.row(j)[i] = d;
        }
    }
    return distances;
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

std::vector<std::vector<double>>
KMeans::seedPlusPlus(const Dataset &data, int k)
{
    const int n = data.size();
    std::vector<std::vector<double>> centroids;
    centroids.reserve(static_cast<std::size_t>(k));
    centroids.push_back(data.instance(_rng.uniformInt(0, n - 1)));

    std::vector<double> minDist(static_cast<std::size_t>(n),
                                std::numeric_limits<double>::max());
    while (static_cast<int>(centroids.size()) < k) {
        double total = 0.0;
        for (int i = 0; i < n; ++i) {
            const double d =
                squaredDistance(data.instance(i), centroids.back());
            auto &slot = minDist[static_cast<std::size_t>(i)];
            slot = std::min(slot, d);
            total += slot;
        }
        if (total <= 1e-300) {
            // All points coincide with chosen centroids; duplicate one.
            centroids.push_back(data.instance(_rng.uniformInt(0, n - 1)));
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
    return centroids;
}

Clustering
KMeans::runOnce(const Dataset &data, int k)
{
    const int n = data.size();
    const int dim = data.numAttributes();
    Clustering result;
    result.k = k;
    result.centroids = seedPlusPlus(data, k);
    result.assignment.assign(static_cast<std::size_t>(n), 0);

    for (int iter = 0; iter < _config.maxIterations; ++iter) {
        bool changed = false;
        // Assignment step.
        for (int i = 0; i < n; ++i) {
            int best = 0;
            double bestD = std::numeric_limits<double>::max();
            for (int c = 0; c < k; ++c) {
                const double d = squaredDistance(
                    data.instance(i),
                    result.centroids[static_cast<std::size_t>(c)]);
                if (d < bestD) {
                    bestD = d;
                    best = c;
                }
            }
            if (result.assignment[static_cast<std::size_t>(i)] != best) {
                result.assignment[static_cast<std::size_t>(i)] = best;
                changed = true;
            }
        }
        // Update step.
        std::vector<std::vector<double>> sums(
            static_cast<std::size_t>(k),
            std::vector<double>(static_cast<std::size_t>(dim), 0.0));
        std::vector<int> counts(static_cast<std::size_t>(k), 0);
        for (int i = 0; i < n; ++i) {
            const int c = result.assignment[static_cast<std::size_t>(i)];
            ++counts[static_cast<std::size_t>(c)];
            const auto &x = data.instance(i);
            for (int d = 0; d < dim; ++d)
                sums[static_cast<std::size_t>(c)]
                    [static_cast<std::size_t>(d)] +=
                    x[static_cast<std::size_t>(d)];
        }
        for (int c = 0; c < k; ++c) {
            if (counts[static_cast<std::size_t>(c)] == 0)
                continue;  // keep the old centroid for empty clusters
            for (int d = 0; d < dim; ++d)
                result.centroids[static_cast<std::size_t>(c)]
                                [static_cast<std::size_t>(d)] =
                    sums[static_cast<std::size_t>(c)]
                        [static_cast<std::size_t>(d)]
                    / counts[static_cast<std::size_t>(c)];
        }
        if (!changed)
            break;
    }

    // Inertia and medoids.
    result.inertia = 0.0;
    result.medoids.assign(static_cast<std::size_t>(k), -1);
    std::vector<double> medoidDist(
        static_cast<std::size_t>(k), std::numeric_limits<double>::max());
    for (int i = 0; i < n; ++i) {
        const int c = result.assignment[static_cast<std::size_t>(i)];
        const double d = squaredDistance(
            data.instance(i),
            result.centroids[static_cast<std::size_t>(c)]);
        result.inertia += d;
        if (d < medoidDist[static_cast<std::size_t>(c)]) {
            medoidDist[static_cast<std::size_t>(c)] = d;
            result.medoids[static_cast<std::size_t>(c)] = i;
        }
    }
    return result;
}

Clustering
KMeans::run(const Dataset &data, int k)
{
    DEJAVU_ASSERT(!data.empty(), "cannot cluster an empty dataset");
    return bestOf(data, k, distanceMatrix(data));
}

Clustering
KMeans::bestOf(const Dataset &data, int k, const FlatMatrix &distances)
{
    DEJAVU_ASSERT(k >= 1 && k <= data.size(),
                  "k=", k, " out of range for n=", data.size());
    Clustering best;
    double bestInertia = std::numeric_limits<double>::max();
    for (int r = 0; r < _config.restarts; ++r) {
        Clustering c = runOnce(data, k);
        if (c.inertia < bestInertia) {
            bestInertia = c.inertia;
            best = std::move(c);
        }
    }
    best.silhouette = silhouetteOf(
        data.size(), best.assignment, k,
        [&distances](int i, int j) {
            return distances.at(static_cast<std::size_t>(i),
                                static_cast<std::size_t>(j));
        });
    return best;
}

Clustering
KMeans::runAuto(const Dataset &data)
{
    DEJAVU_ASSERT(data.size() >= 2, "need >= 2 instances for auto-k");
    const int kMin = _config.autoKMin;
    const int kMax = std::min(_config.autoKMax, data.size() - 1);
    DEJAVU_ASSERT(kMax >= kMin, "k range empty for n=", data.size());
    // Every candidate k scores its winner against the same pairwise
    // distances; built once here, freed on return.
    const FlatMatrix distances = distanceMatrix(data);

    if (_config.criterion == AutoKCriterion::ExplainedVariance) {
        // Total within-cluster scatter at k=1 (variance * n).
        std::vector<double> mean(
            static_cast<std::size_t>(data.numAttributes()), 0.0);
        for (int i = 0; i < data.size(); ++i) {
            const auto &x = data.instance(i);
            for (std::size_t d = 0; d < mean.size(); ++d)
                mean[d] += x[d];
        }
        for (double &m : mean)
            m /= data.size();
        double total = 0.0;
        for (int i = 0; i < data.size(); ++i)
            total += squaredDistance(data.instance(i), mean);
        if (total <= 1e-300)
            return bestOf(data, kMin, distances);  // all points identical

        Clustering last;
        for (int k = kMin; k <= kMax; ++k) {
            last = bestOf(data, k, distances);
            const double explained = 1.0 - last.inertia / total;
            if (explained >= _config.varianceExplained)
                return last;
        }
        return last;  // never reached the target: most classes wins
    }

    Clustering best;
    double bestScore = -2.0;
    for (int k = kMin; k <= kMax; ++k) {
        Clustering c = bestOf(data, k, distances);
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
