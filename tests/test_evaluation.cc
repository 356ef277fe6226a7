/**
 * @file
 * Unit tests for classifier evaluation (ml/evaluation.hh).
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "ml/decision_tree.hh"
#include "ml/evaluation.hh"
#include "ml/naive_bayes.hh"

namespace dejavu {
namespace {

Dataset
easyData(int n, std::uint64_t seed)
{
    Dataset d({"x"});
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        d.add({x}, x > 0 ? 1 : 0);
    }
    return d;
}

TEST(Evaluation, PerfectAccuracyOnSeparableData)
{
    const Dataset d = easyData(200, 3);
    DecisionTree tree;
    tree.train(d);
    EXPECT_GT(accuracy(tree, d), 0.98);
}

TEST(Evaluation, CrossValidationHighOnEasyData)
{
    const Dataset d = easyData(300, 9);
    const double cv = crossValidate(
        [] { return std::make_unique<DecisionTree>(); }, d, 5, 42);
    EXPECT_GT(cv, 0.9);
}

TEST(Evaluation, CrossValidationNearChanceOnNoise)
{
    Dataset d({"x"});
    Rng rng(11);
    for (int i = 0; i < 300; ++i)
        d.add({rng.uniform()}, rng.uniformInt(0, 1));
    const double cv = crossValidate(
        [] { return std::make_unique<NaiveBayes>(); }, d, 5, 42);
    EXPECT_LT(cv, 0.65);
    EXPECT_GT(cv, 0.35);
}

TEST(Evaluation, CrossValidationDeterministic)
{
    const Dataset d = easyData(100, 13);
    auto factory = [] { return std::make_unique<DecisionTree>(); };
    EXPECT_DOUBLE_EQ(crossValidate(factory, d, 4, 7),
                     crossValidate(factory, d, 4, 7));
}

TEST(EvaluationDeath, BadFoldCount)
{
    const Dataset d = easyData(10, 15);
    auto factory = [] { return std::make_unique<DecisionTree>(); };
    EXPECT_DEATH(crossValidate(factory, d, 1, 7), "folds");
    EXPECT_DEATH(crossValidate(factory, d, 11, 7), "folds");
}

} // namespace
} // namespace dejavu
