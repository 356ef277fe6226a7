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

SampleFeed &
FleetSampler::registerService(Service &service, TraceDriver &driver,
                              MonitorProbe::Config config)
{
    DEJAVU_ASSERT(config.monitorPeriod > 0, "bad monitor period");
    DEJAVU_ASSERT(config.postChangeProbe >= 0 &&
                  config.postChangeProbe < kHour,
                  "post-change probe must fall within the hour");
    const auto index = static_cast<std::uint32_t>(_state.size());
    MemberState state;
    state.service = &service;
    state.period = config.monitorPeriod;
    state.postChange = config.postChangeProbe;
    _state.push_back(state);
    _listeners.emplace_back();
    _feeds.emplace_back(*this, index);

    // Each workload change (re)starts this member's sampling chain —
    // appended from inside the Driver-band change event, so a zero
    // post-change probe still samples *after* the change (and before
    // any later same-instant Driver event, the per-probe ordering).
    driver.addListener([this, index](int hour, const Workload &) {
        MemberState &m = _state[index];
        if (!m.live)
            return;
        m.hour = hour;
        // The chain covers one trace hour *from the change instant*
        // (see MonitorProbe), so jittered members keep their full
        // sampling density.
        m.chainEnd = saturatingAdd(now(), kHour);
        enqueue(index, saturatingAdd(now(), m.postChange));
    });
    return _feeds.back();
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
FleetSampler::detachMember(std::uint32_t index)
{
    // Lazy deregistration: already-bucketed indices are skipped on
    // drain, so a mid-slot detach needs no bucket surgery.
    _state[index].live = false;
}

void
FleetSampler::enqueue(std::uint32_t index, SimTime t)
{
    auto it = _buckets.find(t);
    if (it == _buckets.end()) {
        std::vector<std::uint32_t> bucket;
        if (!_bucketPool.empty()) {
            bucket = std::move(_bucketPool.back());
            _bucketPool.pop_back();
        }
        it = _buckets.emplace(t, std::move(bucket)).first;
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
    _buckets.erase(it);

    // Drain in append order == per-probe insertion order. The
    // _draining guard batches the re-arms' event maintenance into one
    // armNext() after the loop (listeners never append to *this*
    // instant: chain starts come from Driver-band events, which fire
    // after this Probe-band drain).
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
