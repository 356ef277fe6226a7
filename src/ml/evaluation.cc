#include "ml/evaluation.hh"

#include <numeric>

#include "common/logging.hh"
#include "common/random.hh"

namespace dejavu {

double
accuracy(const Classifier &classifier, const Dataset &test)
{
    DEJAVU_ASSERT(!test.empty(), "empty test set");
    int correct = 0;
    for (int i = 0; i < test.size(); ++i)
        if (classifier.predict(test.instance(i)).label == test.label(i))
            ++correct;
    return static_cast<double>(correct) / test.size();
}

double
crossValidate(
    const std::function<std::unique_ptr<Classifier>()> &makeClassifier,
    const Dataset &data, int folds, std::uint64_t seed)
{
    DEJAVU_ASSERT(folds >= 2, "need >= 2 folds");
    DEJAVU_ASSERT(data.size() >= folds, "more folds than instances");

    std::vector<int> order(static_cast<std::size_t>(data.size()));
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    for (int i = data.size() - 1; i > 0; --i)
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(rng.uniformInt(0, i))]);

    double totalAccuracy = 0.0;
    for (int f = 0; f < folds; ++f) {
        Dataset train(data.attributeNames());
        Dataset test(data.attributeNames());
        for (int i = 0; i < data.size(); ++i) {
            const int idx = order[static_cast<std::size_t>(i)];
            if (i % folds == f)
                test.add(data.instance(idx), data.label(idx));
            else
                train.add(data.instance(idx), data.label(idx));
        }
        auto model = makeClassifier();
        model->train(train);
        totalAccuracy += accuracy(*model, test);
    }
    return totalAccuracy / folds;
}

} // namespace dejavu
