#include "experiments/sampler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/simulation.hh"

namespace dejavu {

namespace {

/**
 * Fewest due ticks per worker worth a split. A split's cost is paid
 * once per drain — waking the shares, joining them, and reading the
 * acting members' state across cores — so a drain splits across every
 * worker or stays on the run thread. Measured on a 4-vCPU host
 * (mixed shared fleets whose members all fall due together; observe
 * plus act per drain, run thread alone against four shares): 16 ticks
 * 1.9–2.6 µs against 3.2–3.8 µs, 32 ticks 4.9–5.8 against 4.4–5.0,
 * 64 ticks 7.1–7.2 against 6.8–6.9 (two shares: 8.9–9.2), 128 ticks
 * 17–19 against 11–14; YCSB ticks are cheaper, and 40 of them took
 * 4.7–5.1 µs inline against 5.9–6.3 split. A jittered fleet's drains
 * hold a member or two and always stay inline.
 */
constexpr std::size_t kMinTicksPerWorker = 8;

} // namespace

class FleetSampler::FunctionListener : public TickListener
{
  public:
    explicit FunctionListener(SampleListener fn) : _fn(std::move(fn)) {}

    void act(int hour, const Service::PerfSample &sample) override
    { _fn(hour, sample); }

  private:
    SampleListener _fn;
};

FleetSampler::FleetSampler(Simulation &sim, std::string name)
    : Actor(sim, std::move(name))
{
}

FleetSampler::~FleetSampler() = default;

void
FleetSampler::reserveServices(std::size_t n)
{
    _state.reserve(n);
    _memberSamples.reserve(n);
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
    _memberSamples.push_back(0);
    _listeners.emplace_back();

    // Each workload change (re)starts this member's sampling chain —
    // appended from inside the Driver-band change event, so a zero
    // post-change probe still samples *after* the change (and before
    // any later same-instant Driver event).
    driver.addListener([this, index](int hour, const Workload &) {
        MemberState &m = _state[index];
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
FleetSampler::addListener(std::size_t index, TickListener &listener)
{
    _listeners[index].push_back(&listener);
}

void
FleetSampler::addListener(std::size_t index, SampleListener fn)
{
    _functions.push_back(
        std::make_unique<FunctionListener>(std::move(fn)));
    addListener(index, *_functions.back());
}

void
FleetSampler::setPool(WorkerPool *pool)
{
    _pool = pool;
    if (!pool || pool->workers() <= 1)
        return;
    // Members observe concurrently, so each must own its service.
    std::vector<const Service *> services;
    services.reserve(_state.size());
    for (const MemberState &m : _state)
        services.push_back(m.service);
    std::sort(services.begin(), services.end());
    DEJAVU_ASSERT(std::adjacent_find(services.begin(), services.end())
                      == services.end(),
                  "two sampler members share a service");
}

void
FleetSampler::setTrace(obs::TraceRecorder *trace)
{
    _trace = trace;
    if (_trace)
        _runLane = _trace->lane("phase/run", obs::ClockDomain::Wall);
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
FleetSampler::observe(const std::vector<std::uint32_t> &due,
                      std::size_t begin, std::size_t end, Share &share)
{
    for (std::size_t slot = begin; slot < end; ++slot) {
        const std::uint32_t index = due[slot];
        const MemberState &m = _state[index];
        const Service::PerfSample sample = m.service->sample();
        ++_memberSamples[index];
        const std::vector<TickListener *> &listeners = _listeners[index];
        std::size_t from = 0;
        while (from < listeners.size()
               && !listeners[from]->observe(m.hour, sample))
            ++from;
        if (from < listeners.size())
            share.acts.push_back({index,
                                  static_cast<std::uint32_t>(from),
                                  m.hour, sample});
    }
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
    _samples += due.size();

    // Contiguous static shares: consecutive drains of a synchronized
    // fleet repeat the same due order, so each member keeps its
    // worker. Buffers are sized here, so the observe phase never
    // allocates.
    const std::size_t n = due.size();
    const std::size_t workers =
        _pool ? static_cast<std::size_t>(_pool->workers()) : 1;
    const std::size_t shares =
        n >= workers * kMinTicksPerWorker ? workers : 1;
    if (_shares.size() < shares)
        _shares.resize(shares);
    for (std::size_t s = 0; s < shares; ++s)
        _shares[s].acts.reserve(n * (s + 1) / shares - n * s / shares);

    const std::int64_t observeStart = _trace ? _trace->wallMicros() : 0;
    if (shares == 1) {
        MemberLocalScope scope;
        observe(due, 0, n, _shares[0]);
    } else {
        _pool->run(
            static_cast<int>(shares),
            [this, &due, n, shares](int s) {
                const auto share = static_cast<std::size_t>(s);
                observe(due, n * share / shares,
                        n * (share + 1) / shares, _shares[share]);
            },
            /*memberLocal=*/true);
        _peakWorkers = std::max(_peakWorkers, _pool->lastRunWorkers());
    }
    const std::int64_t actStart = _trace ? _trace->wallMicros() : 0;

    // The ordered half. The shares are consecutive slices, so walking
    // them in order is due order. The _draining guard batches the
    // re-arms' event maintenance into one armNext() after the loop
    // (acts never append to *this* instant: chain starts come from
    // Driver-band events, which fire after this Probe-band drain).
    _draining = true;
    std::size_t acts = 0;
    for (std::size_t s = 0; s < shares; ++s) {
        for (const Act &act : _shares[s].acts) {
            const std::vector<TickListener *> &listeners =
                _listeners[act.index];
            for (std::size_t l = act.from; l < listeners.size(); ++l)
                listeners[l]->act(act.hour, act.sample);
        }
        acts += _shares[s].acts.size();
        _shares[s].acts.clear();
    }
    // Next tick only while it still lands inside the member's trace
    // hour; the next hour's chain starts from that hour's change
    // event.
    for (const std::uint32_t index : due) {
        const MemberState &m = _state[index];
        const SimTime next = saturatingAdd(now(), m.period);
        if (next <= m.chainEnd)
            enqueue(index, next);
    }
    _draining = false;
    due.clear();
    _bucketPool.push_back(std::move(due));
    armNext();

    if (_trace) {
        const std::int64_t end = _trace->wallMicros();
        _trace->complete(_runLane, "drain.observe", observeStart,
                         actStart - observeStart,
                         obs::TraceRecorder::kNoDetail, n);
        _trace->complete(_runLane, "drain.act", actStart,
                         end - actStart,
                         obs::TraceRecorder::kNoDetail, acts);
    }
}

} // namespace dejavu
