#include "sim/vm.hh"

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace dejavu {

std::string
vmStateName(VmState state)
{
    switch (state) {
      case VmState::Stopped:
        return "stopped";
      case VmState::Booting:
        return "booting";
      case VmState::Warming:
        return "warming";
      case VmState::Running:
        return "running";
    }
    DEJAVU_PANIC("unknown VmState");
}

Vm::Vm(std::uint32_t id, InstanceType type)
    : Vm(id, type, Timing())
{
}

Vm::Vm(std::uint32_t id, InstanceType type, Timing timing)
    : _id(id), _type(type), _timing(timing)
{
}

void
Vm::setType(InstanceType type)
{
    DEJAVU_ASSERT(_state == VmState::Stopped,
                  "VM ", _id, " must be stopped to change type, is ",
                  vmStateName(_state));
    _type = type;
    markCapacityChanged();
}

void
Vm::start(EventQueue &queue, bool preCreated)
{
    if (_state != VmState::Stopped)
        return;
    const std::uint64_t generation = ++_startGeneration;
    if (preCreated) {
        setState(VmState::Warming);
        queue.scheduleAfter(_timing.warmUp, [this, generation, &queue] {
            if (generation != _startGeneration)
                return;  // Stopped (and possibly restarted) meanwhile.
            setState(VmState::Running);
            _runningSince = queue.now();
        });
    } else {
        setState(VmState::Booting);
        const SimTime boot = _timing.coldBoot;
        queue.scheduleAfter(boot, [this, generation, &queue] {
            if (generation != _startGeneration)
                return;
            setState(VmState::Warming);
            queue.scheduleAfter(_timing.warmUp, [this, generation, &queue] {
                if (generation != _startGeneration)
                    return;
                setState(VmState::Running);
                _runningSince = queue.now();
            });
        });
    }
}

void
Vm::stop(EventQueue &)
{
    ++_startGeneration;  // invalidate any in-flight start completion
    setState(VmState::Stopped);
    _runningSince = -1;
}

void
Vm::setState(VmState state)
{
    _state = state;
    markCapacityChanged();
}

void
Vm::setInterference(double fraction)
{
    DEJAVU_ASSERT(fraction >= 0.0 && fraction <= 0.95,
                  "interference fraction out of range: ", fraction);
    _interference = fraction;
    markCapacityChanged();
}

void
Vm::setDaemonTheft(double fraction)
{
    DEJAVU_ASSERT(fraction >= 0.0 && fraction <= 0.95,
                  "daemon theft fraction out of range: ", fraction);
    _daemonTheft = fraction;
    markCapacityChanged();
}

double
Vm::effectiveCapacityFactor() const
{
    if (_state != VmState::Running)
        return 0.0;
    return (1.0 - _interference) * (1.0 - _daemonTheft);
}

} // namespace dejavu
