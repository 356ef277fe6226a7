#include "ml/dataset.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dejavu {

Dataset::Dataset(std::vector<std::string> attributeNames)
    : _attributeNames(std::move(attributeNames))
{
    DEJAVU_ASSERT(!_attributeNames.empty(),
                  "dataset needs at least one attribute");
}

void
Dataset::add(std::vector<double> values, int label)
{
    DEJAVU_ASSERT(values.size() == _attributeNames.size(),
                  "instance width ", values.size(),
                  " != attribute count ", _attributeNames.size());
    DEJAVU_ASSERT(label >= -1, "labels must be >= -1");
    _instances.push_back(std::move(values));
    _labels.push_back(label);
}

int
Dataset::numClasses() const
{
    int mx = -1;
    for (int l : _labels)
        mx = std::max(mx, l);
    return mx + 1;
}

const std::vector<double> &
Dataset::instance(int i) const
{
    DEJAVU_ASSERT(i >= 0 && i < size(), "instance index out of range");
    return _instances[static_cast<std::size_t>(i)];
}

int
Dataset::label(int i) const
{
    DEJAVU_ASSERT(i >= 0 && i < size(), "instance index out of range");
    return _labels[static_cast<std::size_t>(i)];
}

void
Dataset::setLabel(int i, int label)
{
    DEJAVU_ASSERT(i >= 0 && i < size(), "instance index out of range");
    DEJAVU_ASSERT(label >= -1, "labels must be >= -1");
    _labels[static_cast<std::size_t>(i)] = label;
}

const std::string &
Dataset::attributeName(int a) const
{
    DEJAVU_ASSERT(a >= 0 && a < numAttributes(), "attribute index");
    return _attributeNames[static_cast<std::size_t>(a)];
}

std::vector<double>
Dataset::column(int a) const
{
    DEJAVU_ASSERT(a >= 0 && a < numAttributes(), "attribute index");
    std::vector<double> col;
    col.reserve(_instances.size());
    for (const auto &inst : _instances)
        col.push_back(inst[static_cast<std::size_t>(a)]);
    return col;
}

Dataset
Dataset::project(const std::vector<int> &attributes) const
{
    DEJAVU_ASSERT(!attributes.empty(), "projection needs attributes");
    std::vector<std::string> names;
    names.reserve(attributes.size());
    for (int a : attributes) {
        DEJAVU_ASSERT(a >= 0 && a < numAttributes(),
                      "projection attribute out of range: ", a);
        names.push_back(_attributeNames[static_cast<std::size_t>(a)]);
    }
    Dataset out(std::move(names));
    for (int i = 0; i < size(); ++i) {
        std::vector<double> values;
        values.reserve(attributes.size());
        for (int a : attributes)
            values.push_back(
                _instances[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(a)]);
        out.add(std::move(values), _labels[static_cast<std::size_t>(i)]);
    }
    return out;
}

void
Standardizer::fit(const Dataset &data)
{
    DEJAVU_ASSERT(!data.empty(), "cannot fit on empty dataset");
    const int na = data.numAttributes();
    _mean.assign(static_cast<std::size_t>(na), 0.0);
    _std.assign(static_cast<std::size_t>(na), 1.0);
    for (int a = 0; a < na; ++a) {
        const auto col = data.column(a);
        double sum = 0.0;
        for (double v : col)
            sum += v;
        const double mean = sum / col.size();
        double var = 0.0;
        for (double v : col)
            var += (v - mean) * (v - mean);
        var /= col.size();
        _mean[static_cast<std::size_t>(a)] = mean;
        const double sd = std::sqrt(var);
        _std[static_cast<std::size_t>(a)] = sd > 1e-12 ? sd : 1.0;
    }
}

std::vector<double>
Standardizer::transform(const std::vector<double> &x) const
{
    DEJAVU_ASSERT(fitted(), "standardizer not fitted");
    DEJAVU_ASSERT(x.size() == _mean.size(), "width mismatch");
    std::vector<double> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = (x[i] - _mean[i]) / _std[i];
    return out;
}

void
Standardizer::transformInPlace(std::vector<double> &x) const
{
    DEJAVU_ASSERT(fitted(), "standardizer not fitted");
    DEJAVU_ASSERT(x.size() == _mean.size(), "width mismatch");
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = (x[i] - _mean[i]) / _std[i];
}

Dataset
Standardizer::transform(const Dataset &data) const
{
    Dataset out(data.attributeNames());
    for (int i = 0; i < data.size(); ++i)
        out.add(transform(data.instance(i)), data.label(i));
    return out;
}

} // namespace dejavu
