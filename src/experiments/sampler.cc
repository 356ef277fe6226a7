#include "experiments/sampler.hh"

#include "common/logging.hh"
#include "sim/simulation.hh"

namespace dejavu {

FleetSampler::FleetSampler(Simulation &sim, std::string name)
    : Actor(sim, std::move(name))
{
}

void
FleetSampler::reserveServices(std::size_t n)
{
    _state.reserve(n);
    _listeners.reserve(n);
}

std::size_t
FleetSampler::registerService(Service &service, TraceDriver &driver,
                              Cadence cadence)
{
    DEJAVU_ASSERT(cadence.monitorPeriod > 0, "bad monitor period");
    DEJAVU_ASSERT(cadence.postChangeProbe >= 0 &&
                  cadence.postChangeProbe < kHour,
                  "post-change probe must fall within the hour");
    const auto index = static_cast<std::uint32_t>(_state.size());
    MemberState state;
    state.service = &service;
    state.period = cadence.monitorPeriod;
    state.postChange = cadence.postChangeProbe;
    _state.push_back(state);
    _listeners.emplace_back();

    // Each workload change (re)starts this member's sampling chain —
    // appended from inside the Driver-band change event, so a zero
    // post-change probe still samples *after* the change (and before
    // any later same-instant Driver event).
    driver.addListener([this, index](int hour, const Workload &) {
        MemberState &m = _state[index];
        if (!m.live)
            return;
        m.hour = hour;
        // The chain covers one trace hour *from the change instant*
        // (equal to the calendar hour when the driver is not
        // jittered), so offset members keep their full sampling
        // density.
        m.chainEnd = saturatingAdd(now(), kHour);
        enqueue(index, saturatingAdd(now(), m.postChange));
    });
    return index;
}

void
FleetSampler::addListener(std::size_t index, SampleListener fn)
{
    _listeners[index].push_back(std::move(fn));
}

std::size_t
FleetSampler::liveServices() const
{
    std::size_t live = 0;
    for (const MemberState &m : _state)
        live += m.live ? 1 : 0;
    return live;
}

void
FleetSampler::enqueue(std::uint32_t index, SimTime t)
{
    auto it = _lastBucket;
    if (it == _buckets.end() || it->first != t) {
        it = _buckets.find(t);
        if (it == _buckets.end()) {
            std::vector<std::uint32_t> bucket;
            if (!_bucketPool.empty()) {
                bucket = std::move(_bucketPool.back());
                _bucketPool.pop_back();
            }
            it = _buckets.emplace(t, std::move(bucket)).first;
        }
        _lastBucket = it;
    }
    it->second.push_back(index);
    if (!_draining)
        armNext();
}

void
FleetSampler::armNext()
{
    if (_buckets.empty())
        return;
    const SimTime due = _buckets.begin()->first;
    if (_event != kInvalidEvent) {
        if (_eventAt <= due)
            return;  // already armed at (or before) the earliest work
        cancel(_event);
    }
    _event = at(due, [this] { fireDue(); }, EventBand::Probe);
    _eventAt = due;
}

void
FleetSampler::fireDue()
{
    _event = kInvalidEvent;
    auto it = _buckets.begin();
    DEJAVU_ASSERT(it != _buckets.end() && it->first == now(),
                  "sampler fired with no due bucket");
    std::vector<std::uint32_t> due = std::move(it->second);
    if (_lastBucket == it)
        _lastBucket = _buckets.end();
    _buckets.erase(it);

    // Drain in append (trigger) order. The _draining guard batches
    // the re-arms' event maintenance into one armNext() after the
    // loop (listeners never append to *this* instant: chain starts
    // come from Driver-band events, which fire after this Probe-band
    // drain).
    _draining = true;
    for (const std::uint32_t index : due) {
        MemberState &m = _state[index];
        if (!m.live)
            continue;  // detached after this index was bucketed
        const Service::PerfSample sample = m.service->sample();
        ++m.samples;
        ++_samples;
        for (const auto &listener : _listeners[index])
            listener(m.hour, sample);
        // Next tick only while it still lands inside this member's
        // trace hour; the next hour's chain starts from that hour's
        // change event.
        if (saturatingAdd(now(), m.period) <= m.chainEnd)
            enqueue(index, saturatingAdd(now(), m.period));
    }
    _draining = false;
    due.clear();
    _bucketPool.push_back(std::move(due));
    armNext();
}

} // namespace dejavu
