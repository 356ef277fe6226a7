/**
 * @file
 * Correlation-based Feature Selection (Hall, 1999) with greedy
 * stepwise forward search — the combination the paper found to give
 * high classification accuracy ("the CfsSubsetEval technique, in
 * collaboration with the GreedStepWise search", §3.3).
 *
 * The CFS merit of a feature subset S of size k is
 *
 *     merit(S) = k * mean(r_cf) / sqrt(k + k (k-1) mean(r_ff))
 *
 * where r_cf is the feature-class correlation and r_ff the
 * feature-feature inter-correlation, both measured as symmetric
 * uncertainty over discretized attributes. The merit rewards features
 * that predict the class and penalizes features that duplicate one
 * another ("evaluates each attribute individually, but also observes
 * the degree of redundancy among them").
 */

#ifndef DEJAVU_ML_FEATURE_SELECTION_HH
#define DEJAVU_ML_FEATURE_SELECTION_HH

#include <vector>

#include "common/arena.hh"
#include "ml/dataset.hh"

namespace dejavu {

/**
 * CFS subset evaluator + greedy stepwise search.
 */
class CfsSubsetSelector
{
  public:
    struct Config
    {
        int bins = 5;          ///< Discretization bins.
        int maxFeatures = 12;  ///< Hard cap on the subset size.
        /** Minimum merit improvement to keep growing the subset. */
        double minImprovement = 1e-4;
        /** Eligibility pre-filter: attributes whose feature-class SU
         *  falls below this are never considered. On small samples,
         *  spurious SU of pure-noise attributes sits around 0.05-0.15
         *  and CFS would otherwise admit them late in the search
         *  (they look "non-redundant" precisely because they are
         *  noise). */
        double minClassCorrelation = 0.25;
    };

    CfsSubsetSelector();
    explicit CfsSubsetSelector(Config config);

    /**
     * Run selection on a labeled dataset.
     * @return selected attribute indices, ascending.
     */
    std::vector<int> select(const Dataset &data);

    /** Merit of an explicit subset (exposed for tests/ablation). */
    double merit(const Dataset &data,
                 const std::vector<int> &subset);

    /** Feature-class SU for every attribute (diagnostics). */
    std::vector<double> classCorrelations(const Dataset &data);

  private:
    Config _config;

    /** Discretized columns and their scores, built per call. */
    struct Prepared
    {
        std::vector<std::vector<int>> columns;
        std::vector<double> entropies;  ///< H of each column.
        std::vector<double> rcf;        ///< feature-class SU.
        /** Pairwise SU (na x na) from scorePairs(): zero except for
         *  the pairs it was asked to score. */
        FlatMatrix rff;
    };

    /** Discretize every attribute and score it against the class. */
    Prepared prepare(const Dataset &data) const;
    /** Build rff, scoring every pair of attributes flagged in
     *  @p among. */
    static void scorePairs(Prepared &prep, const std::vector<bool> &among);
    static double meritOf(const Prepared &prep,
                          const std::vector<int> &subset);
};

} // namespace dejavu

#endif // DEJAVU_ML_FEATURE_SELECTION_HH
