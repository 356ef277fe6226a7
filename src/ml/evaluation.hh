/**
 * @file
 * Classifier evaluation utilities: accuracy and k-fold
 * cross-validation, used by the tests and by the signature-selection
 * diagnostics.
 */

#ifndef DEJAVU_ML_EVALUATION_HH
#define DEJAVU_ML_EVALUATION_HH

#include <functional>
#include <memory>
#include <vector>

#include "ml/dataset.hh"

namespace dejavu {

/** Fraction of test instances classified correctly. */
double accuracy(const Classifier &classifier, const Dataset &test);

/**
 * Stratified-ish k-fold cross validation (plain round-robin folds
 * after a deterministic shuffle).
 * @param makeClassifier factory producing a fresh untrained model.
 * @return mean accuracy across folds.
 */
double crossValidate(
    const std::function<std::unique_ptr<Classifier>()> &makeClassifier,
    const Dataset &data, int folds, std::uint64_t seed);

} // namespace dejavu

#endif // DEJAVU_ML_EVALUATION_HH
