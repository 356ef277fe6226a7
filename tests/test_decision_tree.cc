/**
 * @file
 * Unit tests for the C4.5 decision tree (ml/decision_tree.hh).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "ml/decision_tree.hh"

namespace dejavu {
namespace {

Dataset
thresholdData(int n, std::uint64_t seed)
{
    // Class = (x > 0.5) with a distractor attribute.
    Dataset d({"x", "junk"});
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double x = rng.uniform();
        d.add({x, rng.gaussian()}, x > 0.5 ? 1 : 0);
    }
    return d;
}

TEST(DecisionTree, LearnsSimpleThreshold)
{
    const Dataset train = thresholdData(200, 3);
    DecisionTree tree;
    tree.train(train);
    EXPECT_EQ(tree.predict({0.1, 0.0}).label, 0);
    EXPECT_EQ(tree.predict({0.9, 0.0}).label, 1);
}

TEST(DecisionTree, HighConfidenceOnCleanData)
{
    const Dataset train = thresholdData(200, 5);
    DecisionTree tree;
    tree.train(train);
    EXPECT_GT(tree.predict({0.95, 0.0}).confidence, 0.9);
}

TEST(DecisionTree, XorNeedsDepthTwo)
{
    Dataset d({"a", "b"});
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        const double a = rng.uniform(-1.0, 1.0);
        const double b = rng.uniform(-1.0, 1.0);
        d.add({a, b}, (a > 0) != (b > 0) ? 1 : 0);
    }
    DecisionTree tree;
    tree.train(d);
    EXPECT_GE(tree.depth(), 2);
    EXPECT_EQ(tree.predict({0.5, 0.5}).label, 0);
    EXPECT_EQ(tree.predict({-0.5, 0.5}).label, 1);
}

TEST(DecisionTree, PruningShrinksNoiseTrees)
{
    // Random labels: an unpruned tree overfits wildly; pruning must
    // collapse most of it.
    Dataset d({"x"});
    Rng rng(9);
    for (int i = 0; i < 200; ++i)
        d.add({rng.uniform()}, rng.uniformInt(0, 1));

    DecisionTree::Config unprunedCfg;
    unprunedCfg.prune = false;
    DecisionTree unpruned(unprunedCfg);
    unpruned.train(d);

    DecisionTree pruned;
    pruned.train(d);
    EXPECT_LT(pruned.numNodes(), unpruned.numNodes());
}

TEST(DecisionTree, MinLeafRespected)
{
    DecisionTree::Config cfg;
    cfg.minLeafInstances = 50;
    DecisionTree tree(cfg);
    const Dataset train = thresholdData(100, 11);
    tree.train(train);
    // With at most 100 instances and 50 per leaf, at most 3 nodes.
    EXPECT_LE(tree.numLeaves(), 2);
}

TEST(DecisionTree, SingleClassBecomesLeaf)
{
    Dataset d({"x"});
    d.add({1.0}, 0);
    d.add({2.0}, 0);
    d.add({3.0}, 0);
    DecisionTree tree;
    tree.train(d);
    EXPECT_EQ(tree.numNodes(), 1);
    EXPECT_EQ(tree.predict({99.0}).label, 0);
}

TEST(DecisionTree, MultiClassSplits)
{
    Dataset d({"x"});
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        const double x = rng.uniform(0.0, 3.0);
        d.add({x}, static_cast<int>(x));
    }
    DecisionTree tree;
    tree.train(d);
    EXPECT_EQ(tree.predict({0.5}).label, 0);
    EXPECT_EQ(tree.predict({1.5}).label, 1);
    EXPECT_EQ(tree.predict({2.5}).label, 2);
}

TEST(DecisionTree, NormalInverseAccuracy)
{
    // Known quantiles of the standard normal.
    EXPECT_NEAR(DecisionTree::normalInverse(0.5), 0.0, 1e-9);
    EXPECT_NEAR(DecisionTree::normalInverse(0.975), 1.959964, 1e-4);
    EXPECT_NEAR(DecisionTree::normalInverse(0.025), -1.959964, 1e-4);
    EXPECT_NEAR(DecisionTree::normalInverse(0.841345), 1.0, 1e-3);
}

TEST(DecisionTree, AddErrsProperties)
{
    // Zero observed errors still predict some future errors.
    EXPECT_GT(DecisionTree::addErrs(10.0, 0.0, 0.25), 0.0);
    // More observed errors -> more predicted extra errors in total.
    const double few = DecisionTree::addErrs(100.0, 5.0, 0.25);
    const double many = DecisionTree::addErrs(100.0, 20.0, 0.25);
    EXPECT_GT(5.0 + few, 0.0);
    EXPECT_GT(20.0 + many, 5.0 + few);
    // Tighter confidence factor predicts more pessimistically.
    EXPECT_GT(DecisionTree::addErrs(50.0, 5.0, 0.10),
              DecisionTree::addErrs(50.0, 5.0, 0.40));
}

TEST(DecisionTreeDeath, PredictBeforeTrain)
{
    DecisionTree tree;
    EXPECT_DEATH(tree.predict({1.0}), "not trained");
}

TEST(DecisionTreeDeath, UnlabeledTrainingData)
{
    Dataset d({"x"});
    d.add({1.0});
    DecisionTree tree;
    EXPECT_DEATH(tree.train(d), "labels");
}

} // namespace
} // namespace dejavu
