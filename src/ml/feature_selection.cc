#include "ml/feature_selection.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "ml/discretize.hh"

namespace dejavu {

CfsSubsetSelector::CfsSubsetSelector()
    : CfsSubsetSelector(Config())
{
}

CfsSubsetSelector::CfsSubsetSelector(Config config)
    : _config(config)
{
    DEJAVU_ASSERT(_config.bins >= 2, "need >= 2 bins");
    DEJAVU_ASSERT(_config.maxFeatures >= 1, "need >= 1 feature");
}

CfsSubsetSelector::Prepared
CfsSubsetSelector::prepare(const Dataset &data) const
{
    DEJAVU_ASSERT(data.size() >= 2, "need at least two instances");
    DEJAVU_ASSERT(data.numClasses() >= 2,
                  "feature selection needs >= 2 classes");
    Prepared prep;
    const auto na = static_cast<std::size_t>(data.numAttributes());
    prep.columns.reserve(na);
    prep.entropies.reserve(na);
    for (std::size_t a = 0; a < na; ++a) {
        prep.columns.push_back(discretizeEqualWidth(
            data.column(static_cast<int>(a)), _config.bins));
        prep.entropies.push_back(entropy(prep.columns.back()));
    }
    const std::vector<int> klass = data.labels();
    const double classEntropy = entropy(klass);

    prep.rcf.resize(na);
    for (std::size_t a = 0; a < na; ++a)
        prep.rcf[a] = symmetricUncertainty(
            prep.columns[a], prep.entropies[a], klass, classEntropy);
    return prep;
}

void
CfsSubsetSelector::scorePairs(Prepared &prep,
                              const std::vector<bool> &among)
{
    const std::size_t na = prep.columns.size();
    prep.rff.reset(na, na);
    for (std::size_t a = 0; a < na; ++a) {
        if (!among[a])
            continue;
        for (std::size_t b = a + 1; b < na; ++b) {
            if (!among[b])
                continue;
            const double su = symmetricUncertainty(
                prep.columns[a], prep.entropies[a], prep.columns[b],
                prep.entropies[b]);
            prep.rff.row(a)[b] = su;
            prep.rff.row(b)[a] = su;
        }
    }
}

double
CfsSubsetSelector::meritOf(const Prepared &prep,
                           const std::vector<int> &subset)
{
    if (subset.empty())
        return 0.0;
    const double k = static_cast<double>(subset.size());
    double sumRcf = 0.0;
    for (int a : subset)
        sumRcf += prep.rcf[static_cast<std::size_t>(a)];
    double sumRff = 0.0;
    for (std::size_t i = 0; i < subset.size(); ++i)
        for (std::size_t j = i + 1; j < subset.size(); ++j)
            sumRff += prep.rff.at(static_cast<std::size_t>(subset[i]),
                                  static_cast<std::size_t>(subset[j]));
    const double meanRcf = sumRcf / k;
    const double meanRff =
        subset.size() > 1 ? sumRff / (k * (k - 1.0) / 2.0) : 0.0;
    const double denom = std::sqrt(k + k * (k - 1.0) * meanRff);
    return denom > 1e-12 ? k * meanRcf / denom : 0.0;
}

double
CfsSubsetSelector::merit(const Dataset &data,
                         const std::vector<int> &subset)
{
    Prepared prep = prepare(data);
    scorePairs(prep, std::vector<bool>(prep.columns.size(), true));
    return meritOf(prep, subset);
}

std::vector<double>
CfsSubsetSelector::classCorrelations(const Dataset &data)
{
    return prepare(data).rcf;
}

std::vector<int>
CfsSubsetSelector::select(const Dataset &data)
{
    Prepared prep = prepare(data);
    const int na = data.numAttributes();

    std::vector<int> selected;
    std::vector<bool> inSet(static_cast<std::size_t>(na), false);
    double bestMerit = 0.0;

    // Eligibility pre-filter on feature-class correlation.
    std::vector<bool> eligible(static_cast<std::size_t>(na), false);
    int eligibleCount = 0;
    for (int a = 0; a < na; ++a) {
        if (prep.rcf[static_cast<std::size_t>(a)] >=
            _config.minClassCorrelation) {
            eligible[static_cast<std::size_t>(a)] = true;
            ++eligibleCount;
        }
    }
    if (eligibleCount == 0) {
        // Degenerate dataset: fall back to the single best attribute.
        const int best = static_cast<int>(
            std::max_element(prep.rcf.begin(), prep.rcf.end())
            - prep.rcf.begin());
        eligible[static_cast<std::size_t>(best)] = true;
    }
    // The search below only ever reads pairs of eligible attributes.
    scorePairs(prep, eligible);

    // Greedy stepwise forward search: add the attribute yielding the
    // largest merit until no attribute improves it.
    while (static_cast<int>(selected.size()) < _config.maxFeatures) {
        int bestAttr = -1;
        double bestCandidate = bestMerit + _config.minImprovement;
        for (int a = 0; a < na; ++a) {
            if (inSet[static_cast<std::size_t>(a)] ||
                !eligible[static_cast<std::size_t>(a)])
                continue;
            selected.push_back(a);
            const double m = meritOf(prep, selected);
            selected.pop_back();
            if (m > bestCandidate) {
                bestCandidate = m;
                bestAttr = a;
            }
        }
        if (bestAttr < 0)
            break;
        selected.push_back(bestAttr);
        inSet[static_cast<std::size_t>(bestAttr)] = true;
        bestMerit = bestCandidate;
    }
    std::sort(selected.begin(), selected.end());
    DEJAVU_ASSERT(!selected.empty(),
                  "CFS selected no attributes; dataset degenerate?");
    return selected;
}

} // namespace dejavu
