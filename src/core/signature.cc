#include "core/signature.hh"

#include <sstream>

#include "common/logging.hh"

namespace dejavu {

SignatureSchema::SignatureSchema(std::vector<int> selected,
                                 const std::vector<std::string> &allNames)
    : _indices(std::move(selected))
{
    DEJAVU_ASSERT(!_indices.empty(), "empty signature schema");
    _names.reserve(_indices.size());
    for (int idx : _indices) {
        DEJAVU_ASSERT(idx >= 0 &&
                      idx < static_cast<int>(allNames.size()),
                      "schema index out of range: ", idx);
        _names.push_back(allNames[static_cast<std::size_t>(idx)]);
    }
}

std::vector<double>
SignatureSchema::extract(const std::vector<double> &full) const
{
    DEJAVU_ASSERT(!_indices.empty(), "schema not initialized");
    std::vector<double> out;
    out.reserve(_indices.size());
    for (int idx : _indices) {
        DEJAVU_ASSERT(idx < static_cast<int>(full.size()),
                      "metric vector too narrow for schema");
        out.push_back(full[static_cast<std::size_t>(idx)]);
    }
    return out;
}

void
SignatureSchema::extractInto(const std::vector<double> &full,
                             std::vector<double> &out) const
{
    DEJAVU_ASSERT(!_indices.empty(), "schema not initialized");
    out.resize(_indices.size());
    for (std::size_t i = 0; i < _indices.size(); ++i) {
        const int idx = _indices[i];
        DEJAVU_ASSERT(idx < static_cast<int>(full.size()),
                      "metric vector too narrow for schema");
        out[i] = full[static_cast<std::size_t>(idx)];
    }
}

std::string
SignatureSchema::toString() const
{
    std::ostringstream os;
    os << "WS = {";
    for (std::size_t i = 0; i < _names.size(); ++i) {
        if (i)
            os << ", ";
        os << _names[i];
    }
    os << "}";
    return os.str();
}

} // namespace dejavu
