#include "ml/decision_tree.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace dejavu {

DecisionTree::DecisionTree()
    : DecisionTree(Config())
{
}

DecisionTree::DecisionTree(Config config)
    : _config(config)
{
    DEJAVU_ASSERT(_config.minLeafInstances >= 1, "bad min leaf size");
    DEJAVU_ASSERT(_config.confidenceFactor > 0.0 &&
                  _config.confidenceFactor <= 0.5,
                  "confidence factor must be in (0, 0.5]");
}

double
DecisionTree::normalInverse(double p)
{
    DEJAVU_ASSERT(p > 0.0 && p < 1.0, "probability out of (0,1)");
    // Acklam's rational approximation; |relative error| < 1.15e-9.
    static const double a[] = {-3.969683028665376e+01,
        2.209460984245205e+02, -2.759285104469687e+02,
        1.383577518672690e+02, -3.066479806614716e+01,
        2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
        1.615858368580409e+02, -1.556989798598866e+02,
        6.680131188771972e+01, -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
        -3.223964580411365e-01, -2.400758277161838e+00,
        -2.549732539343734e+00, 4.374664141464968e+00,
        2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
        3.224671290700398e-01, 2.445134137142996e+00,
        3.754408661907416e+00};
    const double plow = 0.02425;
    const double phigh = 1.0 - plow;
    double q, r;
    if (p < plow) {
        q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5])
            / ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
    }
    if (p <= phigh) {
        q = p - 0.5;
        r = q * q;
        return (((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5])
            * q
            / (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1.0);
    }
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5])
        / ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
}

double
DecisionTree::addErrs(double n, double e, double cf)
{
    // Transcription of WEKA's weka.core.Stats.addErrs (GPL reference
    // semantics; reimplemented from the published formula).
    DEJAVU_ASSERT(n > 0.0, "empty node");
    if (cf > 0.5) {
        warn("confidence factor > 0.5, clamping");
        cf = 0.5;
    }
    if (e < 1.0) {
        const double base = n * (1.0 - std::pow(cf, 1.0 / n));
        if (e == 0.0)
            return base;
        return base + e * (addErrs(n, 1.0, cf) - base);
    }
    if (e + 0.5 >= n)
        return std::max(n - e, 0.0);
    const double z = normalInverse(1.0 - cf);
    const double f = (e + 0.5) / n;
    const double r =
        (f + z * z / (2.0 * n)
         + z * std::sqrt(f / n - f * f / n + z * z / (4.0 * n * n)))
        / (1.0 + z * z / n);
    return r * n - e;
}

double
DecisionTree::entropyOf(const std::vector<double> &counts, double total)
{
    if (total <= 0.0)
        return 0.0;
    double h = 0.0;
    for (double c : counts) {
        if (c > 0.0) {
            const double p = c / total;
            h -= p * std::log2(p);
        }
    }
    return h;
}

void
DecisionTree::fillLeafStats(Node &node, const Dataset &data,
                            const std::vector<int> &indices,
                            int numClasses)
{
    node.classCounts.assign(static_cast<std::size_t>(numClasses), 0.0);
    for (int i : indices)
        node.classCounts[static_cast<std::size_t>(data.label(i))] += 1.0;
    node.total = static_cast<double>(indices.size());
    node.majority = static_cast<int>(
        std::max_element(node.classCounts.begin(),
                         node.classCounts.end())
        - node.classCounts.begin());
}

std::unique_ptr<DecisionTree::Node>
DecisionTree::build(const Dataset &data, const std::vector<int> &indices,
                    int depthLeft)
{
    auto node = std::make_unique<Node>();
    fillLeafStats(*node, data, indices, _numClasses);

    const double total = node->total;
    const double baseEntropy = entropyOf(node->classCounts, total);
    const bool pure = baseEntropy < 1e-12;
    if (pure || depthLeft <= 0 ||
        static_cast<int>(indices.size()) <
            2 * _config.minLeafInstances) {
        return node;
    }

    // Find the best (attribute, threshold) by gain ratio; thresholds
    // are midpoints between consecutive distinct sorted values.
    int bestAttr = -1;
    double bestThreshold = 0.0;
    double bestGainRatio = 1e-9;
    double bestGain = 0.0;

    const int na = data.numAttributes();
    std::vector<int> sorted(indices);
    for (int a = 0; a < na; ++a) {
        std::sort(sorted.begin(), sorted.end(), [&](int x, int y) {
            return data.instance(x)[static_cast<std::size_t>(a)]
                < data.instance(y)[static_cast<std::size_t>(a)];
        });
        std::vector<double> leftCounts(
            static_cast<std::size_t>(_numClasses), 0.0);
        std::vector<double> rightCounts(node->classCounts);
        const int n = static_cast<int>(sorted.size());
        for (int i = 0; i + 1 < n; ++i) {
            const int idx = sorted[static_cast<std::size_t>(i)];
            const int lbl = data.label(idx);
            leftCounts[static_cast<std::size_t>(lbl)] += 1.0;
            rightCounts[static_cast<std::size_t>(lbl)] -= 1.0;
            const double v = data.instance(idx)
                [static_cast<std::size_t>(a)];
            const double vNext =
                data.instance(sorted[static_cast<std::size_t>(i + 1)])
                [static_cast<std::size_t>(a)];
            if (vNext - v < 1e-12)
                continue;  // not a distinct boundary
            const int leftN = i + 1;
            const int rightN = n - leftN;
            if (leftN < _config.minLeafInstances ||
                rightN < _config.minLeafInstances)
                continue;
            const double pL = static_cast<double>(leftN) / n;
            const double pR = static_cast<double>(rightN) / n;
            const double gain = baseEntropy
                - pL * entropyOf(leftCounts, leftN)
                - pR * entropyOf(rightCounts, rightN);
            if (gain < 1e-12)
                continue;
            const double splitInfo =
                -(pL * std::log2(pL) + pR * std::log2(pR));
            if (splitInfo < 1e-12)
                continue;
            const double ratio = gain / splitInfo;
            if (ratio > bestGainRatio) {
                bestGainRatio = ratio;
                bestGain = gain;
                bestAttr = a;
                bestThreshold = (v + vNext) / 2.0;
            }
        }
    }
    (void)bestGain;

    if (bestAttr < 0)
        return node;  // no useful split

    std::vector<int> leftIdx, rightIdx;
    for (int i : indices) {
        if (data.instance(i)[static_cast<std::size_t>(bestAttr)] <=
            bestThreshold)
            leftIdx.push_back(i);
        else
            rightIdx.push_back(i);
    }
    DEJAVU_ASSERT(!leftIdx.empty() && !rightIdx.empty(),
                  "degenerate split slipped through");

    node->leaf = false;
    node->attribute = bestAttr;
    node->threshold = bestThreshold;
    node->left = build(data, leftIdx, depthLeft - 1);
    node->right = build(data, rightIdx, depthLeft - 1);
    return node;
}

double
DecisionTree::pruneNode(Node &node)
{
    const double leafErrors = node.total
        - node.classCounts[static_cast<std::size_t>(node.majority)];
    const double leafEstimate = leafErrors
        + addErrs(node.total, leafErrors, _config.confidenceFactor);
    if (node.leaf)
        return leafEstimate;

    const double subtreeEstimate =
        pruneNode(*node.left) + pruneNode(*node.right);
    if (leafEstimate <= subtreeEstimate + 0.1) {
        // Subtree replacement: collapse to a leaf.
        node.leaf = true;
        node.left.reset();
        node.right.reset();
        return leafEstimate;
    }
    return subtreeEstimate;
}

void
DecisionTree::train(const Dataset &data)
{
    DEJAVU_ASSERT(!data.empty(), "cannot train on empty dataset");
    _numClasses = data.numClasses();
    DEJAVU_ASSERT(_numClasses >= 1, "training data has no labels");
    for (int i = 0; i < data.size(); ++i)
        DEJAVU_ASSERT(data.label(i) >= 0,
                      "unlabeled instance in training data");
    std::vector<int> indices(static_cast<std::size_t>(data.size()));
    std::iota(indices.begin(), indices.end(), 0);
    _root = build(data, indices, _config.maxDepth);
    if (_config.prune)
        pruneNode(*_root);
}

Prediction
DecisionTree::predict(const std::vector<double> &x) const
{
    DEJAVU_ASSERT(_root != nullptr, "classifier not trained");
    const Node *node = _root.get();
    while (!node->leaf) {
        DEJAVU_ASSERT(node->attribute <
                      static_cast<int>(x.size()), "instance too narrow");
        node = x[static_cast<std::size_t>(node->attribute)] <=
            node->threshold ? node->left.get() : node->right.get();
    }
    Prediction p;
    p.label = node->majority;
    // Laplace-smoothed leaf purity = the certainty level of §3.5.
    // Binary-style smoothing so small-but-pure leaves keep a usable
    // certainty (a pure 2-instance leaf scores 0.75, a 3:2 leaf 0.57).
    p.confidence =
        (node->classCounts[static_cast<std::size_t>(node->majority)]
         + 1.0)
        / (node->total + 2.0);
    return p;
}

int
DecisionTree::countNodes(const Node *node) const
{
    if (!node)
        return 0;
    return 1 + countNodes(node->left.get()) +
        countNodes(node->right.get());
}

int
DecisionTree::countLeaves(const Node *node) const
{
    if (!node)
        return 0;
    if (node->leaf)
        return 1;
    return countLeaves(node->left.get()) + countLeaves(node->right.get());
}

int
DecisionTree::depthOf(const Node *node) const
{
    if (!node || node->leaf)
        return 0;
    return 1 + std::max(depthOf(node->left.get()),
                        depthOf(node->right.get()));
}

int
DecisionTree::numNodes() const
{
    return countNodes(_root.get());
}

int
DecisionTree::numLeaves() const
{
    return countLeaves(_root.get());
}

int
DecisionTree::depth() const
{
    return depthOf(_root.get());
}

} // namespace dejavu
