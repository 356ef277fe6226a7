/**
 * @file
 * Labeled numeric dataset — the substrate for the WEKA-style machine
 * learning the paper applies ("we simply apply various mature methods
 * from the WEKA machine learning package on our datasets obtained
 * from profiling", §3.3).
 *
 * Instances are dense vectors of doubles over named attributes with an
 * optional integer class label (-1 = unlabeled).
 */

#ifndef DEJAVU_ML_DATASET_HH
#define DEJAVU_ML_DATASET_HH

#include <string>
#include <vector>

namespace dejavu {

/**
 * Dense numeric dataset with optional labels.
 */
class Dataset
{
  public:
    Dataset() = default;
    explicit Dataset(std::vector<std::string> attributeNames);

    /** Add one instance; label -1 means unlabeled. */
    void add(std::vector<double> values, int label = -1);

    int numAttributes() const
    { return static_cast<int>(_attributeNames.size()); }
    int size() const { return static_cast<int>(_instances.size()); }
    bool empty() const { return _instances.empty(); }

    /** Number of classes = max label + 1 (0 if unlabeled). */
    int numClasses() const;

    const std::vector<double> &instance(int i) const;
    int label(int i) const;
    void setLabel(int i, int label);

    const std::vector<std::string> &attributeNames() const
    { return _attributeNames; }
    const std::string &attributeName(int a) const;

    /** Column view (copied). */
    std::vector<double> column(int a) const;

    /** All labels (copied). */
    std::vector<int> labels() const { return _labels; }

    /** New dataset keeping only the given attribute indices. */
    Dataset project(const std::vector<int> &attributes) const;

  private:
    std::vector<std::string> _attributeNames;
    std::vector<std::vector<double>> _instances;
    std::vector<int> _labels;
};

/**
 * Z-score standardizer: fit on a dataset, transform vectors. Distance-
 * based methods (k-means) need comparable attribute scales, since raw
 * counter magnitudes span orders of magnitude.
 */
class Standardizer
{
  public:
    /** Learn per-attribute mean and std-dev. */
    void fit(const Dataset &data);

    /** Transform one vector (must match the fitted width). */
    std::vector<double> transform(const std::vector<double> &x) const;

    /** Transform a vector in place (no allocation; hot-path use). */
    void transformInPlace(std::vector<double> &x) const;

    /** Transform a whole dataset (labels preserved). */
    Dataset transform(const Dataset &data) const;

    bool fitted() const { return !_mean.empty(); }
    const std::vector<double> &mean() const { return _mean; }
    const std::vector<double> &stddev() const { return _std; }

  private:
    std::vector<double> _mean;
    std::vector<double> _std;
};

/** A prediction: class label plus classifier certainty (§3.5's
 *  "certainty level"), in [0, 1]. */
struct Prediction
{
    int label = -1;
    double confidence = 0.0;
};

/**
 * Abstract classifier (C4.5, naive Bayes, ...).
 */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /** Fit to a labeled dataset. */
    virtual void train(const Dataset &data) = 0;

    /** Classify one instance. */
    virtual Prediction predict(const std::vector<double> &x) const = 0;

    virtual std::string name() const = 0;
};

} // namespace dejavu

#endif // DEJAVU_ML_DATASET_HH
