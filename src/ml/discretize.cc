#include "ml/discretize.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.hh"

namespace dejavu {

std::vector<int>
discretizeEqualWidth(const std::vector<double> &column, int bins)
{
    DEJAVU_ASSERT(bins >= 1, "need at least one bin");
    DEJAVU_ASSERT(!column.empty(), "empty column");
    const auto [mnIt, mxIt] =
        std::minmax_element(column.begin(), column.end());
    const double mn = *mnIt, mx = *mxIt;
    std::vector<int> out(column.size(), 0);
    if (mx - mn < 1e-300)
        return out;  // constant column
    const double width = (mx - mn) / bins;
    for (std::size_t i = 0; i < column.size(); ++i) {
        int b = static_cast<int>((column[i] - mn) / width);
        out[i] = std::clamp(b, 0, bins - 1);
    }
    return out;
}

double
entropy(const std::vector<int> &values)
{
    DEJAVU_ASSERT(!values.empty(), "empty sequence");
    std::unordered_map<int, int> counts;
    for (int v : values)
        ++counts[v];
    const double n = static_cast<double>(values.size());
    double h = 0.0;
    for (const auto &[_, c] : counts) {
        const double p = c / n;
        h -= p * std::log2(p);
    }
    return h;
}

double
jointEntropy(const std::vector<int> &a, const std::vector<int> &b)
{
    DEJAVU_ASSERT(a.size() == b.size() && !a.empty(),
                  "misaligned sequences");
    std::unordered_map<long long, int> counts;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const long long key =
            static_cast<long long>(a[i]) * 1000003LL + b[i];
        ++counts[key];
    }
    const double n = static_cast<double>(a.size());
    double h = 0.0;
    for (const auto &[_, c] : counts) {
        const double p = c / n;
        h -= p * std::log2(p);
    }
    return h;
}

double
symmetricUncertainty(const std::vector<int> &a, const std::vector<int> &b)
{
    return symmetricUncertainty(a, entropy(a), b, entropy(b));
}

double
symmetricUncertainty(const std::vector<int> &a, double ha,
                     const std::vector<int> &b, double hb)
{
    if (ha + hb < 1e-12)
        return 0.0;  // both constant: no information either way
    const double gain = ha + hb - jointEntropy(a, b);
    return std::clamp(2.0 * gain / (ha + hb), 0.0, 1.0);
}

} // namespace dejavu
