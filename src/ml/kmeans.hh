/**
 * @file
 * k-means clustering ("DejaVu leverages a standard clustering
 * technique, simple k means, to produce a set of workload classes",
 * §3.4), with k-means++ seeding and automatic selection of the number
 * of classes via the mean silhouette coefficient — the paper notes
 * "the framework can automatically determine the number of classes,
 * as we did in our experiments".
 */

#ifndef DEJAVU_ML_KMEANS_HH
#define DEJAVU_ML_KMEANS_HH

#include <vector>

#include "common/arena.hh"
#include "common/random.hh"
#include "ml/dataset.hh"

namespace dejavu {

/**
 * Result of one clustering run.
 */
struct Clustering
{
    int k = 0;
    std::vector<std::vector<double>> centroids;  ///< k centroids.
    std::vector<int> assignment;  ///< Cluster id per instance.
    double inertia = 0.0;         ///< Within-cluster sum of squares.
    double silhouette = 0.0;      ///< Mean silhouette (k >= 2).

    /** Index of the instance closest to each centroid — DejaVu tunes
     *  "the instance that is closest to the cluster's centroid". */
    std::vector<int> medoids;
};

/** How runAuto() chooses the number of clusters. */
enum class AutoKCriterion
{
    /** Smallest k explaining >= varianceExplained of total variance:
     *  matches DejaVu's goal of the *fewest* classes that are still
     *  tight enough to share one allocation per class. */
    ExplainedVariance,
    /** Maximize mean silhouette (with a small per-class penalty). */
    Silhouette,
};

/**
 * Lloyd's algorithm with k-means++ seeding.
 */
class KMeans
{
  public:
    struct Config
    {
        int maxIterations = 100;
        int restarts = 4;       ///< Best-of-N restarts per k.
        int autoKMin = 2;
        int autoKMax = 8;
        AutoKCriterion criterion = AutoKCriterion::Silhouette;
        /** Variance-explained target for that criterion (robust only
         *  when the attributes are mostly informative; noisy
         *  dimensions make the target unreachable). */
        double varianceExplained = 0.92;
    };

    explicit KMeans(Rng rng);
    KMeans(Rng rng, Config config);

    /** Cluster into exactly @p k clusters: the lowest-inertia of
     *  Config::restarts runs, with its silhouette. */
    Clustering run(const Dataset &data, int k);

    /**
     * Cluster with automatic k: maximizes mean silhouette over
     * [autoKMin, min(autoKMax, n-1)], preferring smaller k on ties
     * (fewer workload classes = fewer tuning runs, §3.4). Every k
     * reads its silhouette from one pairwise-distance matrix.
     */
    Clustering runAuto(const Dataset &data);

    /** Squared Euclidean distance (exposed for reuse/tests). */
    static double squaredDistance(const std::vector<double> &a,
                                  const std::vector<double> &b);

    /** Same, against a raw row (e.g. a FlatMatrix centroid row). */
    static double squaredDistance(const std::vector<double> &a,
                                  const double *b);

    /** Mean silhouette coefficient of an assignment, computing each
     *  distance afresh; run() and runAuto() read the same distances
     *  from a matrix and match it bit for bit. */
    static double meanSilhouette(const Dataset &data,
                                 const std::vector<int> &assignment,
                                 int k);

  private:
    Rng _rng;
    Config _config;

    Clustering runOnce(const Dataset &data, int k);
    /** run() over precomputed pairwise @p distances (n x n). */
    Clustering bestOf(const Dataset &data, int k,
                      const FlatMatrix &distances);
    std::vector<std::vector<double>> seedPlusPlus(const Dataset &data,
                                                  int k);
};

} // namespace dejavu

#endif // DEJAVU_ML_KMEANS_HH
