/**
 * @file
 * Workload signatures (§3.3): "an ordered N-tuple WS = {m1, ..., mN}"
 * of automatically selected low-level metrics, normalized by sampling
 * time. A SignatureSchema records *which* of the candidate metrics
 * form the signature.
 */

#ifndef DEJAVU_CORE_SIGNATURE_HH
#define DEJAVU_CORE_SIGNATURE_HH

#include <string>
#include <vector>

#include "counters/metric_sample.hh"

namespace dejavu {

/**
 * The selected-metric schema shared by all signatures of a service.
 */
class SignatureSchema
{
  public:
    SignatureSchema() = default;

    /**
     * @param selected indices into the full candidate-metric vector.
     * @param allNames names of *all* candidate metrics.
     */
    SignatureSchema(std::vector<int> selected,
                    const std::vector<std::string> &allNames);

    int size() const { return static_cast<int>(_indices.size()); }
    bool empty() const { return _indices.empty(); }

    const std::vector<int> &indices() const { return _indices; }
    const std::vector<std::string> &names() const { return _names; }

    /** Project a full metric vector down to the signature tuple. */
    std::vector<double> extract(const std::vector<double> &full) const;

    /** extract() into a caller-owned buffer (resized to the schema
     *  width) — the reuse-phase hot path classifies every workload
     *  change fleet-wide, so it reuses one scratch tuple instead of
     *  allocating per change. */
    void extractInto(const std::vector<double> &full,
                     std::vector<double> &out) const;

    /** Convenience: extract from a Monitor sample. */
    std::vector<double> extract(const MetricSample &sample) const
    { return extract(sample.values); }

    std::string toString() const;

  private:
    std::vector<int> _indices;
    std::vector<std::string> _names;
};

} // namespace dejavu

#endif // DEJAVU_CORE_SIGNATURE_HH
