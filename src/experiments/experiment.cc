#include "experiments/experiment.hh"

#include "common/logging.hh"
#include "experiments/actors.hh"
#include "experiments/fleet_experiment.hh"

namespace dejavu {

ProvisioningExperiment::ProvisioningExperiment(Simulation &sim,
                                               Service &service,
                                               LoadTrace trace,
                                               Config config)
    : _sim(sim), _service(service), _trace(std::move(trace)),
      _config(config)
{
    DEJAVU_ASSERT(_config.reuseStartHour >= 0, "bad reuse start");
    DEJAVU_ASSERT(_config.peakClients > 0.0, "bad peak clients");
    if (_config.totalHours < 0)
        _config.totalHours = static_cast<int>(_trace.hours());
    DEJAVU_ASSERT(_config.totalHours >
                  _config.reuseStartHour, "no reuse window");
}

std::vector<Workload>
ProvisioningExperiment::learningWorkloads(const Service &service,
                                          const LoadTrace &trace,
                                          const Config &config)
{
    std::vector<Workload> out;
    out.reserve(static_cast<std::size_t>(config.reuseStartHour));
    for (int h = 0; h < config.reuseStartHour; ++h)
        out.push_back(TraceDriver::workloadFor(
            service, trace, config.peakClients, h));
    return out;
}

ExperimentResult
ProvisioningExperiment::run(ProvisioningPolicy &policy)
{
    FleetExperiment fleet(_sim);
    fleet.addService(policy.name(), _service, policy, _trace, _config);
    return std::move(fleet.run().front().result);
}

} // namespace dejavu
