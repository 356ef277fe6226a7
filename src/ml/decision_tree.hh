/**
 * @file
 * C4.5 decision tree — a reimplementation of the parts of WEKA's J48
 * the paper uses ("We use the C4.5 decision tree in our evaluation,
 * or more precisely its open source Java implementation – J48",
 * §3.5): gain-ratio splits on continuous attributes, minimum-leaf
 * stopping, pessimistic (confidence-factor) error pruning, and
 * per-leaf class distributions from which the classification
 * *certainty level* is derived — the signal DejaVu uses to detect
 * never-seen workloads and fall back to full capacity.
 */

#ifndef DEJAVU_ML_DECISION_TREE_HH
#define DEJAVU_ML_DECISION_TREE_HH

#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.hh"

namespace dejavu {

/**
 * C4.5-style binary decision tree over numeric attributes.
 */
class DecisionTree : public Classifier
{
  public:
    struct Config
    {
        int minLeafInstances = 2;       ///< J48 -M.
        double confidenceFactor = 0.25; ///< J48 -C.
        bool prune = true;
        int maxDepth = 40;
    };

    DecisionTree();
    explicit DecisionTree(Config config);

    void train(const Dataset &data) override;
    Prediction predict(const std::vector<double> &x) const override;
    std::string name() const override { return "C4.5"; }

    /** @name Structural queries (for tests/diagnostics) @{ */
    int numNodes() const;
    int numLeaves() const;
    int depth() const;
    /** @} */

    /**
     * J48's pessimistic added-error estimate: the expected extra
     * errors on top of @p e observed errors among @p n instances at
     * confidence factor @p cf. Public for tests.
     */
    static double addErrs(double n, double e, double cf);

    /** Inverse standard normal CDF (Acklam's approximation). */
    static double normalInverse(double p);

  private:
    struct Node
    {
        bool leaf = true;
        int attribute = -1;
        double threshold = 0.0;
        std::unique_ptr<Node> left;     ///< x[attr] <= threshold.
        std::unique_ptr<Node> right;    ///< x[attr] >  threshold.
        std::vector<double> classCounts;
        int majority = 0;
        double total = 0.0;
    };

    Config _config;
    std::unique_ptr<Node> _root;
    int _numClasses = 0;

    std::unique_ptr<Node> build(const Dataset &data,
                                const std::vector<int> &indices,
                                int depthLeft);
    double pruneNode(Node &node);  ///< Returns estimated errors.

    static void fillLeafStats(Node &node, const Dataset &data,
                              const std::vector<int> &indices,
                              int numClasses);
    static double entropyOf(const std::vector<double> &counts,
                            double total);

    int countNodes(const Node *node) const;
    int countLeaves(const Node *node) const;
    int depthOf(const Node *node) const;
};

} // namespace dejavu

#endif // DEJAVU_ML_DECISION_TREE_HH
