#include "experiments/actors.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "experiments/sampler.hh"
#include "sim/simulation.hh"

namespace dejavu {

// --------------------------------------------------------------------
// TraceDriver
// --------------------------------------------------------------------

TraceDriver::TraceDriver(Simulation &sim, Service &service,
                         const LoadTrace &trace, Config config,
                         std::string name)
    : Actor(sim, std::move(name)), _service(service), _trace(trace),
      _config(config)
{
    DEJAVU_ASSERT(_config.totalHours > 0, "trace driver needs hours");
    DEJAVU_ASSERT(_config.peakClients > 0.0, "bad peak clients");
    DEJAVU_ASSERT(_config.startOffset >= 0 &&
                  _config.startOffset < kHour,
                  "arrival offset must fall within the hour");
}

void
TraceDriver::addListener(ChangeListener fn)
{
    _listeners.push_back(std::move(fn));
}

Workload
TraceDriver::workloadFor(const Service &service, const LoadTrace &trace,
                         double peakClients, int hour)
{
    Workload w;
    w.mix = service.workload().mix;
    w.clients = trace.at(static_cast<std::size_t>(hour)) * peakClients;
    return w;
}

void
TraceDriver::onStart()
{
    DEJAVU_ASSERT(now() == 0,
                  "trace driver expects a fresh simulation clock");
    _event = every(_config.startOffset, kHour, [this] { applyHour(); },
                   EventBand::Driver);
}

void
TraceDriver::applyHour()
{
    if (_hour >= _config.totalHours) {
        cancel(_event);
        return;
    }
    const int hour = _hour++;
    const Workload w =
        workloadFor(_service, _trace, _config.peakClients, hour);
    _service.setWorkload(w);
    for (const auto &listener : _listeners)
        listener(hour, w);
}

// --------------------------------------------------------------------
// MetricsRecorder
// --------------------------------------------------------------------

MetricsRecorder::MetricsRecorder(Simulation &sim, Service &service,
                                 const LoadTrace &trace,
                                 TraceDriver &driver,
                                 FleetSampler &sampler,
                                 std::size_t member, Config config,
                                 std::string name, SeriesArena *arena)
    : Actor(sim, std::move(name)), _service(service), _trace(trace),
      _config(config), _totalHours(driver.config().totalHours),
      _horizon(_totalHours * static_cast<SimTime>(kHour)
               + driver.config().startOffset),
      _arena(arena ? arena : &_ownArena)
{
    for (int s = 0; s < kNumSeries; ++s)
        _streams[s] = _arena->newStream();
    driver.addListener([this](int hour, const Workload &w) {
        onChange(hour, w);
    });
    sampler.addListener(member, static_cast<TickListener &>(*this));
}

void
MetricsRecorder::onStart()
{
    // Freeze the integrals at this recorder's own horizon: in a
    // fleet, members with shorter traces must not keep accruing
    // cost/energy while longer-running members finish, and a
    // jittered member's reuse window ends its arrival offset after
    // the hour. Driver band runs after any same-instant monitor tick.
    at(_horizon, [this] {
        _frozen = true;
        _finalCost = _service.cluster().accruedDollars();
        _finalEnergy = _energyMeter.kiloWattHours(now());
        _finalMaxEnergy = _maxEnergyMeter.kiloWattHours(now());
    }, EventBand::Driver);
}

void
MetricsRecorder::onChange(int hour, const Workload &)
{
    if (hour == _config.reuseStartHour) {
        _costAtReuseStart = _service.cluster().accruedDollars();
        _energyAtReuseStart = _energyMeter.kiloWattHours(now());
        _maxEnergyAtReuseStart = _maxEnergyMeter.kiloWattHours(now());
    }
}

void
MetricsRecorder::onTick(int hour, const Service::PerfSample &s)
{
    const double tHours = toHours(now());
    if (_config.recordSeries) {
        _arena->append(_streams[kLatencyMs], tHours, s.meanLatencyMs);
        _arena->append(_streams[kQosPercent], tHours, s.qosPercent);
        _arena->append(
            _streams[kInstances], tHours,
            static_cast<double>(
                _service.cluster().target().instances));
        _arena->append(_streams[kComputeUnits], tHours,
                       _service.cluster().nominalComputeUnits());
        _arena->append(_streams[kLoadFraction], tHours,
                       _trace.atTime(now()));
    }

    // Both draws are pure in (ρ, target) and the fixed yardstick, so
    // they are recomputed only when one of those moves; the meters
    // still integrate every tick.
    const ResourceAllocation target = _service.cluster().target();
    const std::uint64_t rhoBits = bitsOf(s.utilization);
    if (rhoBits != _wattsRhoBits || target != _wattsTarget) {
        _wattsRhoBits = rhoBits;
        _wattsTarget = target;
        _clusterWatts =
            _energyModel.clusterWatts(_service.cluster(), s.utilization);
        // Full capacity would serve the same load at lower
        // utilization: scale by the capacity ratio.
        const double maxUtil = s.utilization
            * _service.cluster().nominalComputeUnits()
            / std::max(_maxAlloc.computeUnits(), 1e-9);
        _maxWatts = _energyModel.watts(_maxAlloc, maxUtil);
    }
    _energyMeter.update(now(), _clusterWatts);
    _maxEnergyMeter.update(now(), _maxWatts);

    if (hour >= _config.reuseStartHour) {
        ++_reuseTicks;
        _reuseLatencySum += s.meanLatencyMs;
        _reuseQos.add(s.qosPercent);
        if (!_config.slo.satisfied(s.meanLatencyMs, s.qosPercent))
            ++_violations;
    }
}

ExperimentResult
MetricsRecorder::finish() const
{
    ExperimentResult result;
    if (_config.recordSeries) {
        result.latencyMs =
            _arena->copyOut<SeriesPoint>(_streams[kLatencyMs]);
        result.qosPercent =
            _arena->copyOut<SeriesPoint>(_streams[kQosPercent]);
        result.instances =
            _arena->copyOut<SeriesPoint>(_streams[kInstances]);
        result.computeUnits =
            _arena->copyOut<SeriesPoint>(_streams[kComputeUnits]);
        result.loadFraction =
            _arena->copyOut<SeriesPoint>(_streams[kLoadFraction]);
    }
    result.sloViolationFraction = _reuseTicks
        ? static_cast<double>(_violations) / _reuseTicks : 0.0;
    result.meanLatencyMs = _reuseTicks
        ? _reuseLatencySum / static_cast<double>(_reuseTicks) : 0.0;
    if (_config.recordSeries) {
        PercentileSampler reuseLatency;
        for (auto it = result.latencyMs.end()
                 - static_cast<std::ptrdiff_t>(_reuseTicks);
             it != result.latencyMs.end(); ++it)
            reuseLatency.add(it->value);
        result.p95LatencyMs = reuseLatency.quantile(0.95);
    } else {
        result.p95LatencyMs = std::numeric_limits<double>::quiet_NaN();
    }
    result.meanQosPercent = _reuseQos.mean();

    const double totalCost = _frozen
        ? _finalCost : _service.cluster().accruedDollars();
    result.costDollars = totalCost - _costAtReuseStart;
    const double reuseHours =
        static_cast<double>(_totalHours - _config.reuseStartHour);
    result.maxCostDollars =
        _service.cluster().maxAllocation().dollarsPerHour() * reuseHours;
    result.savingsPercent = result.maxCostDollars > 0.0
        ? 100.0 * (1.0 - result.costDollars / result.maxCostDollars)
        : 0.0;

    const double energy = _frozen
        ? _finalEnergy : _energyMeter.kiloWattHours(now());
    const double maxEnergy = _frozen
        ? _finalMaxEnergy : _maxEnergyMeter.kiloWattHours(now());
    result.energyKwh = energy - _energyAtReuseStart;
    result.maxEnergyKwh = maxEnergy - _maxEnergyAtReuseStart;
    result.energySavingsPercent = result.maxEnergyKwh > 0.0
        ? 100.0 * (1.0 - result.energyKwh / result.maxEnergyKwh)
        : 0.0;
    return result;
}

} // namespace dejavu
