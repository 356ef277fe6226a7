/**
 * @file
 * Runtime workload classification (§3.5): a classifier trained on the
 * labeled clusters stands as "the explicit description of the
 * workload classes". At runtime it maps a fresh signature to a class
 * and reports a certainty level; low certainty means the workload was
 * never seen and triggers the full-capacity fallback.
 */

#ifndef DEJAVU_CORE_CLASSIFIER_ENGINE_HH
#define DEJAVU_CORE_CLASSIFIER_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.hh"

namespace dejavu {

/**
 * Wraps the classifier with the certainty-threshold policy.
 */
class ClassifierEngine
{
  public:
    enum class Algorithm { C45, NaiveBayes };

    struct Config
    {
        Algorithm algorithm = Algorithm::C45;
        /** Below this certainty the workload counts as unknown. */
        double certaintyThreshold = 0.60;
    };

    struct Outcome
    {
        int classId = -1;
        double certainty = 0.0;
        bool known = false;   ///< certainty >= threshold.
    };

    ClassifierEngine();
    explicit ClassifierEngine(Config config);

    /** Train on standardized, labeled signature tuples. */
    void train(const Dataset &labeledSignatures);

    /** Classify one standardized signature tuple. */
    Outcome classify(const std::vector<double> &signature) const;

    bool trained() const { return _model != nullptr; }
    int numClasses() const { return _numClasses; }
    const Config &config() const { return _config; }

  private:
    Config _config;
    std::unique_ptr<Classifier> _model;
    int _numClasses = 0;
};

} // namespace dejavu

#endif // DEJAVU_CORE_CLASSIFIER_ENGINE_HH
