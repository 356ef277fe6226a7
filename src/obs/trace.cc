#include "obs/trace.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"

namespace dejavu {
namespace obs {

namespace {

/** Minimal JSON string escaping (quotes, backslash, control). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char *kHex = "0123456789abcdef";
                out += "\\u00";
                out += kHex[(c >> 4) & 0xf];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

int
pidOf(ClockDomain domain)
{
    return domain == ClockDomain::Sim ? 1 : 2;
}

} // namespace

TraceRecorder::TraceRecorder(Config config)
    : _synchronized(config.synchronized),
      _maxSlabs(std::max<std::size_t>(
          1, (config.maxEvents + kSlabEvents - 1) / kSlabEvents)),
      _wallEpochNanos(wallNanos())
{
}

LaneId
TraceRecorder::lane(const std::string &name, ClockDomain domain)
{
    if (_synchronized) {
        MutexLock lock(_mu);
        return laneUnlocked(name, domain);
    }
    return laneUnlocked(name, domain);
}

LaneId
TraceRecorder::laneUnlocked(const std::string &name,
                            ClockDomain domain)
{
    const auto it = _laneIndex.find(name);
    if (it != _laneIndex.end()) {
        DEJAVU_ASSERT(_lanes[it->second].domain == domain, "lane ",
                      name, " re-registered in a different clock ",
                      "domain");
        return it->second;
    }
    const LaneId id = static_cast<LaneId>(_lanes.size());
    _lanes.push_back(Lane{name, domain});
    _laneIndex.emplace(name, id);
    return id;
}

std::uint32_t
TraceRecorder::intern(const std::string &text)
{
    if (_synchronized) {
        MutexLock lock(_mu);
        return internUnlocked(text);
    }
    return internUnlocked(text);
}

std::uint32_t
TraceRecorder::internUnlocked(const std::string &text)
{
    const auto it = _internIndex.find(text);
    if (it != _internIndex.end())
        return it->second;
    const std::uint32_t id =
        static_cast<std::uint32_t>(_interned.size());
    _interned.push_back(text);
    _internIndex.emplace(text, id);
    return id;
}

void
TraceRecorder::rollSlab()
{
    if (_slabs.size() >= _maxSlabs) {
        _dropped += _slabs.front().n;
        _slabs.pop_front();
    }
    _slabs.emplace_back();
}

std::size_t
TraceRecorder::eventCount() const
{
    MutexLock lock(_mu);
    std::size_t n = 0;
    for (const Slab &slab : _slabs)
        n += slab.n;
    return n;
}

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    MutexLock lock(_mu);

    std::vector<const Event *> events;
    for (const Slab &slab : _slabs)
        for (std::size_t i = 0; i < slab.n; ++i)
            events.push_back(&slab.events[i]);
    // Sorted per lane so every Perfetto track is monotonic in ts;
    // stable keeps append order among equal timestamps (a begin
    // stays ahead of its same-instant end).
    std::stable_sort(events.begin(), events.end(),
                     [](const Event *a, const Event *b) {
                         if (a->lane != b->lane)
                             return a->lane < b->lane;
                         return a->ts < b->ts;
                     });

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto open = [&]() -> std::ostream & {
        os << (first ? "\n{" : ",\n{");
        first = false;
        return os;
    };

    bool domainUsed[2] = {false, false};
    for (const Lane &ln : _lanes)
        domainUsed[ln.domain == ClockDomain::Sim ? 0 : 1] = true;
    if (domainUsed[0])
        open() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               << "\"tid\":0,\"args\":{\"name\":\"sim-time\"}}";
    if (domainUsed[1])
        open() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               << "\"tid\":0,\"args\":{\"name\":\"wall-time\"}}";
    for (LaneId id = 0; id < _lanes.size(); ++id) {
        const Lane &ln = _lanes[id];
        open() << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
               << pidOf(ln.domain) << ",\"tid\":" << (id + 1)
               << ",\"args\":{\"name\":\"" << jsonEscape(ln.name)
               << "\"}}";
        open() << "\"name\":\"thread_sort_index\",\"ph\":\"M\","
               << "\"pid\":" << pidOf(ln.domain) << ",\"tid\":"
               << (id + 1) << ",\"args\":{\"sort_index\":" << id
               << "}}";
    }

    // Per-lane open-span stacks: unmatched ends (their begin fell off
    // the ring) are skipped, unmatched begins are closed at the
    // lane's last timestamp, so every emitted track balances.
    std::vector<std::vector<const char *>> openSpans(_lanes.size());
    std::vector<std::int64_t> lastTs(_lanes.size(), 0);

    const auto emitCommon = [&](const Event &ev, const char *ph,
                                const char *name) {
        open() << "\"name\":\"" << (name ? name : "span")
               << "\",\"cat\":\"dejavu\",\"ph\":\"" << ph
               << "\",\"ts\":" << ev.ts << ",\"pid\":"
               << pidOf(_lanes[ev.lane].domain) << ",\"tid\":"
               << (ev.lane + 1);
        if (ev.phase == Phase::Complete)
            os << ",\"dur\":" << (ev.dur < 0 ? 0 : ev.dur);
        if (ev.phase == Phase::Instant)
            os << ",\"s\":\"t\"";
        const bool hasDetail = ev.detail != kNoDetail &&
                               ev.detail < _interned.size();
        if (hasDetail || ev.arg != kNoArg) {
            os << ",\"args\":{";
            if (hasDetail)
                os << "\"detail\":\""
                   << jsonEscape(_interned[ev.detail]) << "\"";
            if (ev.arg != kNoArg)
                os << (hasDetail ? "," : "") << "\"v\":" << ev.arg;
            os << "}";
        }
        os << "}";
    };

    for (const Event *ev : events) {
        DEJAVU_ASSERT(ev->lane < _lanes.size(),
                      "trace event on unregistered lane ", ev->lane);
        lastTs[ev->lane] = std::max(lastTs[ev->lane], ev->ts);
        switch (ev->phase) {
        case Phase::Begin:
            openSpans[ev->lane].push_back(ev->name);
            emitCommon(*ev, "B", ev->name);
            break;
        case Phase::End:
            if (openSpans[ev->lane].empty())
                break;  // begin was recycled out of the ring
            emitCommon(*ev, "E", openSpans[ev->lane].back());
            openSpans[ev->lane].pop_back();
            break;
        case Phase::Complete:
            emitCommon(*ev, "X", ev->name);
            break;
        case Phase::Instant:
            emitCommon(*ev, "i", ev->name);
            break;
        }
    }

    for (LaneId id = 0; id < _lanes.size(); ++id) {
        while (!openSpans[id].empty()) {
            Event closer{lastTs[id], -1, openSpans[id].back(), kNoArg,
                         id, kNoDetail, Phase::End};
            emitCommon(closer, "E", openSpans[id].back());
            openSpans[id].pop_back();
        }
    }

    os << "\n]}\n";
}

} // namespace obs
} // namespace dejavu
