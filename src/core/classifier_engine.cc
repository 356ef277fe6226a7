#include "core/classifier_engine.hh"

#include "common/logging.hh"
#include "ml/decision_tree.hh"
#include "ml/naive_bayes.hh"

namespace dejavu {

ClassifierEngine::ClassifierEngine()
    : ClassifierEngine(Config())
{
}

ClassifierEngine::ClassifierEngine(Config config)
    : _config(config)
{
    DEJAVU_ASSERT(_config.certaintyThreshold > 0.0 &&
                  _config.certaintyThreshold <= 1.0,
                  "certainty threshold out of (0, 1]");
}

void
ClassifierEngine::train(const Dataset &labeledSignatures)
{
    DEJAVU_ASSERT(!labeledSignatures.empty(), "no training data");
    _numClasses = labeledSignatures.numClasses();
    DEJAVU_ASSERT(_numClasses >= 1, "training data is unlabeled");
    switch (_config.algorithm) {
      case Algorithm::C45:
        _model = std::make_unique<DecisionTree>();
        break;
      case Algorithm::NaiveBayes:
        _model = std::make_unique<NaiveBayes>();
        break;
    }
    _model->train(labeledSignatures);
}

ClassifierEngine::Outcome
ClassifierEngine::classify(const std::vector<double> &signature) const
{
    DEJAVU_ASSERT(trained(), "classifier engine not trained");
    const Prediction p = _model->predict(signature);
    Outcome out;
    out.classId = p.label;
    out.certainty = p.confidence;
    out.known = p.confidence >= _config.certaintyThreshold;
    return out;
}

} // namespace dejavu
