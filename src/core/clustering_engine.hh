/**
 * @file
 * Workload-class identification (§3.4): from a learning-phase pile of
 * profiling samples, (1) derive the signature schema via CFS feature
 * selection, (2) cluster the signatures with k-means (auto-k), and
 * (3) pick each cluster's representative (the instance closest to the
 * centroid) for tuning.
 *
 * Feature selection is supervised but labels do not exist yet, so the
 * engine bootstraps: a provisional clustering over *all* standardized
 * metrics supplies labels for CFS, and the final clustering runs on
 * the selected signature metrics only.
 *
 * Class labels are canonical: clusters are relabeled in ascending
 * lexicographic order of their standardized centroids, so the
 * numbering is independent of k-means seeding. This is what lets a
 * shared repository treat class ids as comparable across same-kind
 * controllers (see core/shared_repository.hh).
 */

#ifndef DEJAVU_CORE_CLUSTERING_ENGINE_HH
#define DEJAVU_CORE_CLUSTERING_ENGINE_HH

#include <vector>

#include "common/random.hh"
#include "core/signature.hh"
#include "counters/monitor.hh"
#include "ml/dataset.hh"
#include "ml/feature_selection.hh"
#include "ml/kmeans.hh"

namespace dejavu {

/**
 * Drives feature selection + clustering over learning samples.
 */
class ClusteringEngine
{
  public:
    struct Config
    {
        KMeans::Config kmeans;
        CfsSubsetSelector::Config cfs;

        Config()
        {
            // The administrator-struck tradeoff of §3.4: few enough
            // classes to keep tuning cheap, enough to track the
            // diurnal range (the paper lands on 3–4 for its traces).
            kmeans.autoKMin = 3;
            kmeans.autoKMax = 6;
        }
    };

    struct Result
    {
        SignatureSchema schema;        ///< Selected metrics.
        Standardizer standardizer;     ///< Over the selected metrics.
        Clustering clustering;         ///< Final workload classes.
        Dataset labeledSignatures;     ///< Standardized + labeled.
        /** For each class, the index (into the input samples) of the
         *  medoid — the workload DejaVu sends to the Tuner. */
        std::vector<int> representatives;
        /** Sample indices per class. */
        std::vector<std::vector<int>> members;
    };

    explicit ClusteringEngine(Rng rng);
    ClusteringEngine(Rng rng, Config config);

    /**
     * Identify workload classes from raw metric samples.
     * @param samples full candidate-metric vectors (>= 4 required).
     */
    Result identifyClasses(const std::vector<MetricSample> &samples);

  private:
    Rng _rng;
    Config _config;
};

} // namespace dejavu

#endif // DEJAVU_CORE_CLUSTERING_ENGINE_HH
