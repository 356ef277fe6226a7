#include "core/decision.hh"

#include <algorithm>

#include "ml/kmeans.hh"

namespace dejavu {
namespace serving {

void
applyNoveltyGuard(const DecisionModel &model,
                  const std::vector<double> &tuple,
                  ClassifierEngine::Outcome &outcome)
{
    if (outcome.classId < 0 ||
        outcome.classId >=
            static_cast<int>(model.classRadius->size()))
        return;
    const double radius = std::max(
        (*model.classRadius)[static_cast<std::size_t>(
            outcome.classId)],
        1e-6);
    const double dist = std::sqrt(KMeans::squaredDistance(
        tuple, model.centroidRows->row(
                   static_cast<std::size_t>(outcome.classId))));
    const double slack = model.noveltyRadiusSlack * radius;
    if (dist > slack) {
        outcome.certainty *= std::exp(-(dist - slack) / radius);
        outcome.known =
            outcome.certainty >= model.certaintyThreshold;
    }
}

ClassifierEngine::Outcome
classifySample(const DecisionModel &model,
               const std::vector<double> &metricValues,
               std::vector<double> &scratch)
{
    DEJAVU_ASSERT(model.valid(),
                  "classifySample over an incomplete DecisionModel");
    model.schema->extractInto(metricValues, scratch);
    model.standardizer->transformInPlace(scratch);
    ClassifierEngine::Outcome outcome =
        model.classifier->classify(scratch);
    applyNoveltyGuard(model, scratch, outcome);
    return outcome;
}

} // namespace serving
} // namespace dejavu
