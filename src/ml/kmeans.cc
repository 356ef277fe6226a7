#include "ml/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
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

/** Points measured per block by the Lloyd kernel. */
constexpr std::size_t kLanes = 8;

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
 * One run()/runAuto() call's view of its dataset, built once and read
 * by every restart of every k. The kernels below walk flat blocks and
 * make no out-of-line call per distance, so their speed does not hinge
 * on where the linker places Dataset's code.
 */
struct Workspace
{
    FlatMatrix points;     ///< n x d, row-major.
    /** d x stride, dimension-major: point i's value j at (j, i). The
     *  stride rounds n up to whole kLanes blocks; padding stays 0. */
    FlatMatrix columns;
    /** n x stride pairwise squared distances, padded like columns. */
    FlatMatrix squared;
    FlatMatrix distances;  ///< n x n, their square roots.
};

/** Two lanes of the block kernel: one SSE2 (or NEON) register. */
typedef double Lanes2 __attribute__((vector_size(16)));

inline Lanes2
loadLanes2(const double *p)
{
    Lanes2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * out[l] = squared distance of point base + l to @p centre, for the
 * kLanes points of one block of @p columns. Each lane has its own
 * accumulator summed in dimension order, so it equals
 * rowSquaredDistance() bit for bit: vector arithmetic is elementwise,
 * and a squared difference ignores operand order. The eight lanes run
 * as four two-lane subpd/mulpd/addpd chains; written as vectors, so
 * neither -O2 nor -O3 regroups them across dimensions.
 */
inline void
blockSquaredDistances(const FlatMatrix &columns, std::size_t base,
                      const double *centre, double *out)
{
    static_assert(kLanes == 8, "four two-lane accumulators");
    Lanes2 d0 = {}, d1 = {}, d2 = {}, d3 = {};
    for (std::size_t j = 0; j < columns.rows(); ++j) {
        const double *x = columns.row(j) + base;
        const Lanes2 c = {centre[j], centre[j]};
        const Lanes2 e0 = loadLanes2(x) - c;
        const Lanes2 e1 = loadLanes2(x + 2) - c;
        const Lanes2 e2 = loadLanes2(x + 4) - c;
        const Lanes2 e3 = loadLanes2(x + 6) - c;
        d0 += e0 * e0;
        d1 += e1 * e1;
        d2 += e2 * e2;
        d3 += e3 * e3;
    }
    std::memcpy(out, &d0, sizeof d0);
    std::memcpy(out + 2, &d1, sizeof d1);
    std::memcpy(out + 4, &d2, sizeof d2);
    std::memcpy(out + 6, &d3, sizeof d3);
}

Workspace
workspaceOf(const Dataset &data)
{
    const auto n = static_cast<std::size_t>(data.size());
    const auto dim = static_cast<std::size_t>(data.numAttributes());
    Workspace ws;
    ws.points.reset(n, dim);
    const std::size_t stride = (n + kLanes - 1) / kLanes * kLanes;
    ws.columns.reset(dim, stride);
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<double> &x = data.instance(static_cast<int>(i));
        DEJAVU_ASSERT(x.size() == dim, "dimension mismatch");
        std::copy(x.begin(), x.end(), ws.points.row(i));
        for (std::size_t j = 0; j < dim; ++j)
            ws.columns.row(j)[i] = x[j];
    }

    // Each pair once, from the block holding the diagonal onward, and
    // mirrored. The diagonal is measured too: seeding reads it.
    ws.squared.reset(n, stride);
    ws.distances.reset(n, n);
    double block[kLanes];
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t base = i / kLanes * kLanes; base < n;
             base += kLanes) {
            blockSquaredDistances(ws.columns, base, ws.points.row(i),
                                  block);
            for (std::size_t j = std::max(base, i);
                 j < std::min(base + kLanes, n); ++j) {
                const double d = block[j - base];
                ws.squared.row(i)[j] = ws.squared.row(j)[i] = d;
                ws.distances.row(i)[j] = ws.distances.row(j)[i] =
                    std::sqrt(d);
            }
        }
    }
    return ws;
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
    std::vector<int> seeds;       ///< Seeding: the chosen points.
    /** Per point: squared distance to its centroid in the last pass. */
    std::vector<double> nearest;
};

/**
 * k-means++ seeding into buffers.seeds and @p centroids (k x d). Every
 * seed is a copy of a point, so its distances to all points are its
 * row of the pairwise matrix.
 */
void
seedPlusPlus(const Workspace &ws, int k, Rng &rng, FlatMatrix &centroids,
             Buffers &buffers)
{
    const int n = static_cast<int>(ws.points.rows());
    const std::size_t dim = ws.points.cols();
    std::vector<int> &seeds = buffers.seeds;
    seeds.assign(static_cast<std::size_t>(k), 0);
    seeds[0] = rng.uniformInt(0, n - 1);

    std::vector<double> &minDist = buffers.minDist;
    minDist.assign(static_cast<std::size_t>(n),
                   std::numeric_limits<double>::max());
    for (std::size_t c = 1; c < seeds.size(); ++c) {
        const double *d =
            ws.squared.row(static_cast<std::size_t>(seeds[c - 1]));
        double total = 0.0;
        for (std::size_t i = 0; i < minDist.size(); ++i) {
            minDist[i] = std::min(minDist[i], d[i]);
            total += minDist[i];
        }
        if (total <= 1e-300) {
            // All points coincide with chosen centroids; duplicate one.
            seeds[c] = rng.uniformInt(0, n - 1);
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
        seeds[c] = chosen;
    }

    centroids.reset(static_cast<std::size_t>(k), dim);
    for (std::size_t c = 0; c < seeds.size(); ++c) {
        const double *x = ws.points.row(static_cast<std::size_t>(seeds[c]));
        std::copy(x, x + dim, centroids.row(c));
    }
}

/**
 * Assigns each point its nearest centroid, first on ties, kLanes points
 * at a time: @p distancesTo(base, c, d) fills d with the squared
 * distances of points base .. base + kLanes - 1 to centroid c. Records
 * each point's distance to its centroid in @p nearest. (A point with
 * no distance below DBL_MAX, a NaN or overflowed sum, leaves DBL_MAX
 * there, so its restart's inertia can win no best-of-restarts, just as
 * the measured NaN or infinity could not.) Returns whether any point
 * changed cluster.
 */
template <typename DistancesTo>
bool
assignNearest(std::size_t k, DistancesTo &&distancesTo,
              std::vector<int> &assignment, std::vector<double> &nearest)
{
    const std::size_t n = assignment.size();
    bool changed = false;
    double d[kLanes], bestD[kLanes];
    int best[kLanes];
    for (std::size_t base = 0; base < n; base += kLanes) {
        std::fill(bestD, bestD + kLanes,
                  std::numeric_limits<double>::max());
        std::fill(best, best + kLanes, 0);
        for (std::size_t c = 0; c < k; ++c) {
            distancesTo(base, c, d);
            for (std::size_t l = 0; l < kLanes; ++l) {
                if (d[l] < bestD[l]) {
                    bestD[l] = d[l];
                    best[l] = static_cast<int>(c);
                }
            }
        }
        for (std::size_t l = 0; l < std::min(kLanes, n - base); ++l) {
            const std::size_t i = base + l;
            if (assignment[i] != best[l]) {
                assignment[i] = best[l];
                changed = true;
            }
            nearest[i] = bestD[l];
        }
    }
    return changed;
}

/** Update step: each non-empty cluster's centroid becomes its mean;
 *  an empty cluster keeps its old centroid. */
void
updateCentroids(const FlatMatrix &points, Buffers &buffers, Restart &out)
{
    const std::size_t k = out.centroids.rows();
    const std::size_t dim = points.cols();
    buffers.sums.reset(k, dim);
    buffers.counts.assign(k, 0);
    for (std::size_t i = 0; i < points.rows(); ++i) {
        const auto c = static_cast<std::size_t>(out.assignment[i]);
        ++buffers.counts[c];
        double *sum = buffers.sums.row(c);
        const double *x = points.row(i);
        for (std::size_t j = 0; j < dim; ++j)
            sum[j] += x[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
        const int count = buffers.counts[c];
        if (count == 0)
            continue;
        const double *sum = buffers.sums.row(c);
        double *centroid = out.centroids.row(c);
        for (std::size_t j = 0; j < dim; ++j)
            centroid[j] = sum[j] / count;
    }
}

/** One seeded Lloyd run into @p out. */
void
runOnce(const Workspace &ws, int k, Rng &rng, int maxIterations,
        Buffers &buffers, Restart &out)
{
    const FlatMatrix &points = ws.points;
    const std::size_t n = points.rows();
    const auto kk = static_cast<std::size_t>(k);
    seedPlusPlus(ws, k, rng, out.centroids, buffers);
    out.assignment.assign(n, 0);
    buffers.nearest.resize(n);

    // The first pass reads the seeds' rows of the pairwise matrix;
    // later passes measure against the moved centroids.
    const auto toSeed = [&ws, &buffers](std::size_t base, std::size_t c,
                                        double *d) {
        const double *row = ws.squared.row(
            static_cast<std::size_t>(buffers.seeds[c]));
        std::copy(row + base, row + base + kLanes, d);
    };
    const auto toCentroid = [&ws, &out](std::size_t base, std::size_t c,
                                        double *d) {
        blockSquaredDistances(ws.columns, base, out.centroids.row(c), d);
    };

    // A pass whose assignment is unchanged ends the run. After the
    // first pass the update still runs: it turns the seeds into means.
    // After a later one it would rebuild, bit for bit, the centroids
    // that pass measured against, so the run stops before it and each
    // point's distance to its centroid is already in `nearest`.
    bool measured = false;
    bool changed =
        assignNearest(kk, toSeed, out.assignment, buffers.nearest);
    updateCentroids(points, buffers, out);
    for (int iter = 1; changed && iter < maxIterations; ++iter) {
        changed = assignNearest(kk, toCentroid, out.assignment,
                                buffers.nearest);
        if (changed)
            updateCentroids(points, buffers, out);
        else
            measured = true;
    }
    if (!measured) {
        for (std::size_t i = 0; i < n; ++i)
            buffers.nearest[i] = rowSquaredDistance(
                points.row(i),
                out.centroids.row(
                    static_cast<std::size_t>(out.assignment[i])),
                points.cols());
    }

    // Inertia and medoids.
    out.inertia = 0.0;
    out.medoids.assign(kk, -1);
    std::vector<double> medoidDist(kk,
                                   std::numeric_limits<double>::max());
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(out.assignment[i]);
        const double d = buffers.nearest[i];
        out.inertia += d;
        if (d < medoidDist[c]) {
            medoidDist[c] = d;
            out.medoids[c] = static_cast<int>(i);
        }
    }
}

/** The lowest-inertia of config.restarts runs, with its silhouette
 *  read from the workspace's pairwise distances. */
Clustering
bestOf(const Workspace &ws, int k, Rng &rng, const KMeans::Config &config)
{
    const int n = static_cast<int>(ws.points.rows());
    DEJAVU_ASSERT(k >= 1 && k <= n, "k=", k, " out of range for n=", n);
    Buffers buffers;
    Restart best, current;
    double bestInertia = std::numeric_limits<double>::max();
    for (int r = 0; r < config.restarts; ++r) {
        runOnce(ws, k, rng, config.maxIterations, buffers, current);
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
        n, result.assignment, k, [&ws](int i, int j) {
            return ws.distances.at(static_cast<std::size_t>(i),
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
    return bestOf(workspaceOf(data), k, _rng, _config);
}

Clustering
KMeans::runAuto(const Dataset &data)
{
    DEJAVU_ASSERT(data.size() >= 2, "need >= 2 instances for auto-k");
    const int kMin = _config.autoKMin;
    const int kMax = std::min(_config.autoKMax, data.size() - 1);
    DEJAVU_ASSERT(kMax >= kMin, "k range empty for n=", data.size());
    // Every candidate k seeds from and scores its winner against the
    // same pairwise distances; built once here, freed on return.
    const Workspace ws = workspaceOf(data);

    Clustering best;
    double bestScore = -2.0;
    for (int k = kMin; k <= kMax; ++k) {
        Clustering c = bestOf(ws, k, _rng, _config);
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
