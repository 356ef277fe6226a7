/**
 * @file
 * Equal-width discretization and entropy helpers shared by the CFS
 * feature selector. WEKA's CfsSubsetEval discretizes numeric
 * attributes before computing symmetric-uncertainty correlations; we
 * do the same.
 */

#ifndef DEJAVU_ML_DISCRETIZE_HH
#define DEJAVU_ML_DISCRETIZE_HH

#include <vector>

namespace dejavu {

/**
 * Discretize a numeric column into @p bins equal-width bins.
 * Constant columns land entirely in bin 0.
 */
std::vector<int> discretizeEqualWidth(const std::vector<double> &column,
                                      int bins);

/** Shannon entropy (bits) of a discrete sequence. */
double entropy(const std::vector<int> &values);

/** Joint entropy of two aligned discrete sequences. */
double jointEntropy(const std::vector<int> &a, const std::vector<int> &b);

/**
 * Symmetric uncertainty in [0, 1]:
 * SU(X,Y) = 2 * (H(X) + H(Y) - H(X,Y)) / (H(X) + H(Y)).
 */
double symmetricUncertainty(const std::vector<int> &a,
                            const std::vector<int> &b);

/** Same, given the precomputed entropies @p ha = H(a), @p hb = H(b):
 *  callers scoring many pairs compute each entropy once. */
double symmetricUncertainty(const std::vector<int> &a, double ha,
                            const std::vector<int> &b, double hb);

} // namespace dejavu

#endif // DEJAVU_ML_DISCRETIZE_HH
