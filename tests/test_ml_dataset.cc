/**
 * @file
 * Unit tests for Dataset and Standardizer (ml/dataset.hh).
 */

#include <gtest/gtest.h>

#include "ml/dataset.hh"

namespace dejavu {
namespace {

Dataset
smallDataset()
{
    Dataset d({"x", "y", "z"});
    d.add({1.0, 10.0, 100.0}, 0);
    d.add({2.0, 20.0, 200.0}, 1);
    d.add({3.0, 30.0, 300.0}, 1);
    return d;
}

TEST(Dataset, BasicAccessors)
{
    const Dataset d = smallDataset();
    EXPECT_EQ(d.size(), 3);
    EXPECT_EQ(d.numAttributes(), 3);
    EXPECT_EQ(d.numClasses(), 2);
    EXPECT_EQ(d.label(0), 0);
    EXPECT_EQ(d.attributeName(1), "y");
    EXPECT_DOUBLE_EQ(d.instance(2)[0], 3.0);
}

TEST(Dataset, ColumnExtraction)
{
    const Dataset d = smallDataset();
    EXPECT_EQ(d.column(1), (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(Dataset, UnlabeledInstances)
{
    Dataset d({"a"});
    d.add({1.0});
    EXPECT_EQ(d.label(0), -1);
    EXPECT_EQ(d.numClasses(), 0);
    d.setLabel(0, 3);
    EXPECT_EQ(d.numClasses(), 4);
}

TEST(Dataset, ProjectKeepsLabelsAndOrder)
{
    const Dataset d = smallDataset();
    const Dataset p = d.project({2, 0});
    EXPECT_EQ(p.numAttributes(), 2);
    EXPECT_EQ(p.attributeName(0), "z");
    EXPECT_EQ(p.attributeName(1), "x");
    EXPECT_DOUBLE_EQ(p.instance(1)[0], 200.0);
    EXPECT_EQ(p.label(1), 1);
}

TEST(DatasetDeath, WidthMismatch)
{
    Dataset d({"x", "y"});
    EXPECT_DEATH(d.add({1.0}), "width");
}

TEST(DatasetDeath, BadIndices)
{
    const Dataset d = smallDataset();
    EXPECT_DEATH(d.instance(99), "out of range");
    EXPECT_DEATH(d.column(7), "attribute index");
}

TEST(Standardizer, ZeroMeanUnitVariance)
{
    Dataset d({"a", "b"});
    d.add({1.0, 100.0});
    d.add({3.0, 300.0});
    d.add({5.0, 500.0});
    Standardizer s;
    s.fit(d);
    const Dataset t = s.transform(d);
    for (int a = 0; a < 2; ++a) {
        double sum = 0.0, sq = 0.0;
        for (int i = 0; i < t.size(); ++i) {
            sum += t.instance(i)[static_cast<std::size_t>(a)];
            sq += t.instance(i)[static_cast<std::size_t>(a)]
                * t.instance(i)[static_cast<std::size_t>(a)];
        }
        EXPECT_NEAR(sum / t.size(), 0.0, 1e-12);
        EXPECT_NEAR(sq / t.size(), 1.0, 1e-9);
    }
}

TEST(Standardizer, ConstantColumnSafe)
{
    Dataset d({"c"});
    d.add({5.0});
    d.add({5.0});
    Standardizer s;
    s.fit(d);
    const auto out = s.transform(std::vector<double>{5.0});
    EXPECT_DOUBLE_EQ(out[0], 0.0);  // no divide-by-zero
}

TEST(Standardizer, TransformNewVector)
{
    Dataset d({"x"});
    d.add({0.0});
    d.add({10.0});
    Standardizer s;
    s.fit(d);
    const auto out = s.transform(std::vector<double>{5.0});
    EXPECT_NEAR(out[0], 0.0, 1e-12);  // the mean maps to 0
}

TEST(StandardizerDeath, UseBeforeFit)
{
    Standardizer s;
    EXPECT_DEATH(s.transform(std::vector<double>{1.0}), "not fitted");
}

} // namespace
} // namespace dejavu
