#include "sim/cluster.hh"

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace dejavu {

Cluster::Cluster(EventQueue &queue, Config config)
    : _queue(queue), _config(config),
      _target{1, config.initialType},
      _maxType(config.initialType)
{
    DEJAVU_ASSERT(_config.maxInstances >= 1, "cluster needs >= 1 VM");
    _vms.reserve(_config.maxInstances);
    for (int i = 0; i < _config.maxInstances; ++i) {
        _vms.emplace_back(static_cast<std::uint32_t>(i),
                          _config.initialType, _config.vmTiming);
        _vms.back().notifyCapacityChanges(&_unitsStale);
    }
    // The scale-up experiments may deploy XLarge later; remember the
    // largest type seen so maxAllocation() reflects true full capacity.
    _vms.front().start(queue, _config.preCreated);
    rebill();
}

void
Cluster::deploy(const ResourceAllocation &allocation)
{
    DEJAVU_ASSERT(allocation.instances >= 1 &&
                  allocation.instances <= _config.maxInstances,
                  "allocation ", allocation.toString(),
                  " outside pool bounds");
    if (instanceSpec(allocation.type).computeUnits >
        instanceSpec(_maxType).computeUnits) {
        _maxType = allocation.type;
    }

    // Retype first (restarts active VMs), then adjust the count.
    if (allocation.type != _target.type)
        setInstanceType(allocation.type);
    if (allocation.instances != _target.instances)
        setActiveInstances(allocation.instances);
}

void
Cluster::setActiveInstances(int n)
{
    DEJAVU_ASSERT(n >= 1 && n <= _config.maxInstances,
                  "instance count ", n, " outside [1, ",
                  _config.maxInstances, "]");
    for (int i = 0; i < _config.maxInstances; ++i) {
        if (i < n) {
            if (_vms[i].state() == VmState::Stopped) {
                if (_vms[i].type() != _target.type)
                    _vms[i].setType(_target.type);
                _vms[i].start(_queue, _config.preCreated);
            }
        } else {
            if (_vms[i].state() != VmState::Stopped)
                _vms[i].stop(_queue);
        }
    }
    _target.instances = n;
    rebill();
}

void
Cluster::setInstanceType(InstanceType type)
{
    if (type == _target.type)
        return;
    if (instanceSpec(type).computeUnits >
        instanceSpec(_maxType).computeUnits) {
        _maxType = type;
    }
    for (int i = 0; i < _target.instances; ++i) {
        if (_vms[i].state() != VmState::Stopped)
            _vms[i].stop(_queue);
        _vms[i].setType(type);
        _vms[i].start(_queue, _config.preCreated);
    }
    _target.type = type;
    rebill();
}

int
Cluster::runningInstances() const
{
    int n = 0;
    for (const auto &vm : _vms)
        if (vm.running())
            ++n;
    return n;
}

double
Cluster::effectiveComputeUnits() const
{
    if (_unitsStale) {
        double total = 0.0;
        for (const auto &vm : _vms)
            total += vm.spec().computeUnits * vm.effectiveCapacityFactor();
        _units = total;
        _unitsStale = false;
    }
    return _units;
}

double
Cluster::meanInterference() const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &vm : _vms) {
        if (vm.running()) {
            sum += vm.interference();
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

Vm &
Cluster::vm(int index)
{
    DEJAVU_ASSERT(index >= 0 && index < poolSize(), "vm index");
    return _vms[static_cast<std::size_t>(index)];
}

const Vm &
Cluster::vm(int index) const
{
    DEJAVU_ASSERT(index >= 0 && index < poolSize(), "vm index");
    return _vms[static_cast<std::size_t>(index)];
}

double
Cluster::accruedDollars() const
{
    return _billing.accruedDollars(_queue.now());
}

void
Cluster::rebill()
{
    _billing.setRate(_queue.now(), _target.dollarsPerHour());
}

} // namespace dejavu
