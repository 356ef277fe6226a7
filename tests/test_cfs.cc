/**
 * @file
 * Unit tests for CFS feature selection (ml/feature_selection.hh):
 * informative features are chosen, redundant copies and noise are
 * pruned — the behaviour §3.3 relies on to build Table 1.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hh"
#include "ml/feature_selection.hh"

namespace dejavu {
namespace {

/** Synthetic dataset: attrs 0 and 1 informative, 2 a near-copy of 0,
 *  3..5 pure noise. Class = quadrant of (signal0, signal1). */
Dataset
syntheticDataset(int n, std::uint64_t seed)
{
    Dataset d({"signal0", "signal1", "copy-of-0", "noise0", "noise1",
               "noise2"});
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double s0 = rng.uniform(-1.0, 1.0);
        const double s1 = rng.uniform(-1.0, 1.0);
        const int label = (s0 > 0 ? 1 : 0) + (s1 > 0 ? 2 : 0);
        d.add({s0, s1, s0 + 0.01 * rng.gaussian(), rng.gaussian(),
               rng.gaussian(), rng.gaussian()},
              label);
    }
    return d;
}

/** Wider dataset: two signals, three noisy views of them, a sum,
 *  and eight noise attributes that fail the eligibility filter. */
Dataset
widerDataset(int n, std::uint64_t seed)
{
    Dataset d({"signal0", "signal1", "view0", "view1", "view01",
               "sum", "noise0", "noise1", "noise2", "noise3", "noise4",
               "noise5", "noise6", "noise7"});
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double s0 = rng.uniform(-1.0, 1.0);
        const double s1 = rng.uniform(-1.0, 1.0);
        const int label = (s0 > 0 ? 1 : 0) + (s1 > 0 ? 2 : 0);
        std::vector<double> x = {s0,
                                 s1,
                                 s0 + 0.3 * rng.gaussian(),
                                 s1 + 0.3 * rng.gaussian(),
                                 s0 - s1 + 0.2 * rng.gaussian(),
                                 s0 + s1};
        for (int k = 0; k < 8; ++k)
            x.push_back(rng.gaussian());
        d.add(std::move(x), label);
    }
    return d;
}

/** Greedy stepwise forward search over the public merit() and
 *  classCorrelations(), written out independently of select(). */
std::vector<int>
referenceSelect(const Dataset &d, const CfsSubsetSelector::Config &cfg)
{
    CfsSubsetSelector selector(cfg);
    const std::vector<double> rcf = selector.classCorrelations(d);
    std::vector<int> eligible;
    for (int a = 0; a < d.numAttributes(); ++a)
        if (rcf[static_cast<std::size_t>(a)] >= cfg.minClassCorrelation)
            eligible.push_back(a);
    if (eligible.empty())
        eligible.push_back(static_cast<int>(
            std::max_element(rcf.begin(), rcf.end()) - rcf.begin()));

    std::vector<int> selected;
    double bestMerit = 0.0;
    while (static_cast<int>(selected.size()) < cfg.maxFeatures) {
        int bestAttr = -1;
        double bestCandidate = bestMerit + cfg.minImprovement;
        for (int a : eligible) {
            if (std::count(selected.begin(), selected.end(), a))
                continue;
            selected.push_back(a);
            const double m = selector.merit(d, selected);
            selected.pop_back();
            if (m > bestCandidate) {
                bestCandidate = m;
                bestAttr = a;
            }
        }
        if (bestAttr < 0)
            break;
        selected.push_back(bestAttr);
        bestMerit = bestCandidate;
    }
    std::sort(selected.begin(), selected.end());
    return selected;
}

TEST(Cfs, SelectMatchesReferenceSearchOverPublicMerit)
{
    // select() scores feature pairs among eligible attributes only;
    // its answer must still be the full-matrix greedy search's.
    for (std::uint64_t seed : {29u, 31u, 37u, 41u}) {
        for (int maxFeatures : {2, 12}) {
            for (double minClass : {0.1, 0.25}) {
                const Dataset d = widerDataset(160, seed);
                CfsSubsetSelector::Config cfg;
                cfg.maxFeatures = maxFeatures;
                cfg.minClassCorrelation = minClass;
                CfsSubsetSelector selector(cfg);
                const std::vector<double> rcf =
                    selector.classCorrelations(d);
                const auto eligible = std::count_if(
                    rcf.begin(), rcf.end(),
                    [&](double r) { return r >= minClass; });
                ASSERT_GE(eligible, 3) << "seed " << seed;
                ASSERT_LT(eligible, d.numAttributes()) << "seed " << seed;
                EXPECT_EQ(selector.select(d), referenceSelect(d, cfg))
                    << "seed " << seed << " maxFeatures " << maxFeatures
                    << " minClassCorrelation " << minClass;
            }
        }
    }
}

TEST(Cfs, SelectsInformativeFeatures)
{
    const Dataset d = syntheticDataset(400, 3);
    CfsSubsetSelector selector;
    const auto chosen = selector.select(d);
    // Attribute 2 is an interchangeable copy of 0: either satisfies.
    EXPECT_TRUE(std::count(chosen.begin(), chosen.end(), 0) ||
                std::count(chosen.begin(), chosen.end(), 2));
    EXPECT_TRUE(std::count(chosen.begin(), chosen.end(), 1));
}

TEST(Cfs, DropsNoise)
{
    const Dataset d = syntheticDataset(400, 5);
    CfsSubsetSelector selector;
    const auto chosen = selector.select(d);
    for (int noisy : {3, 4, 5})
        EXPECT_FALSE(std::count(chosen.begin(), chosen.end(), noisy))
            << "noise attribute " << noisy << " selected";
}

TEST(Cfs, PrunesRedundantCopy)
{
    // Attribute 2 duplicates attribute 0; CFS's redundancy term must
    // keep at most one of them.
    const Dataset d = syntheticDataset(400, 7);
    CfsSubsetSelector selector;
    const auto chosen = selector.select(d);
    const bool has0 = std::count(chosen.begin(), chosen.end(), 0) > 0;
    const bool has2 = std::count(chosen.begin(), chosen.end(), 2) > 0;
    EXPECT_TRUE(has0 || has2);
    EXPECT_FALSE(has0 && has2)
        << "both the feature and its copy were selected";
}

TEST(Cfs, MeritOfEmptySubsetIsZero)
{
    const Dataset d = syntheticDataset(100, 9);
    CfsSubsetSelector selector;
    EXPECT_DOUBLE_EQ(selector.merit(d, {}), 0.0);
}

TEST(Cfs, MeritPrefersInformativeOverNoise)
{
    const Dataset d = syntheticDataset(400, 11);
    CfsSubsetSelector selector;
    EXPECT_GT(selector.merit(d, {0, 1}), selector.merit(d, {3, 4}));
}

TEST(Cfs, ClassCorrelationsRankSignalAboveNoise)
{
    const Dataset d = syntheticDataset(400, 13);
    CfsSubsetSelector selector;
    const auto rcf = selector.classCorrelations(d);
    EXPECT_GT(rcf[0], rcf[3]);
    EXPECT_GT(rcf[1], rcf[4]);
}

TEST(Cfs, RespectsMaxFeatures)
{
    CfsSubsetSelector::Config cfg;
    cfg.maxFeatures = 1;
    CfsSubsetSelector selector(cfg);
    const auto chosen = selector.select(syntheticDataset(200, 17));
    EXPECT_EQ(chosen.size(), 1u);
}

TEST(Cfs, ResultIsSortedAscending)
{
    const auto chosen =
        CfsSubsetSelector().select(syntheticDataset(300, 19));
    EXPECT_TRUE(std::is_sorted(chosen.begin(), chosen.end()));
}

TEST(Cfs, FallsBackToBestAttributeWhenAllFiltered)
{
    // Tiny dataset where no attribute passes the eligibility filter:
    // the selector must still return one attribute, not die.
    CfsSubsetSelector::Config cfg;
    cfg.minClassCorrelation = 0.999;
    CfsSubsetSelector selector(cfg);
    const auto chosen = selector.select(syntheticDataset(100, 23));
    EXPECT_EQ(chosen.size(), 1u);
}

TEST(CfsDeath, NeedsLabels)
{
    Dataset d({"a"});
    d.add({1.0});
    d.add({2.0});
    CfsSubsetSelector selector;
    EXPECT_DEATH(selector.select(d), "classes");
}

} // namespace
} // namespace dejavu
