#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"

namespace perfbench {

double
quantileOf(const std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    dejavu::PercentileSampler sampler;
    for (double v : values)
        sampler.add(v);
    return sampler.quantile(q);
}

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0)
        / static_cast<double>(values.size());
}

namespace {

/** A "Vm...:  <n> kB" field of /proc/self/status in KiB, or -1. */
double
statusKib(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) == 0)
            return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
    return -1.0;
}

} // namespace

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

double
peakRssMib()
{
    const double hwm = statusKib("VmHWM");
    if (hwm >= 0.0)
        return hwm / 1024.0;
    return static_cast<double>(dejavu::peakRssBytes())
        / (1024.0 * 1024.0);
}

double
currentRssKib()
{
    return std::max(0.0, statusKib("VmRSS"));
}

int
SpanLog::open(const char *name)
{
    const int index = static_cast<int>(_spans.size());
    const int parent = _open.empty() ? -1 : _open.back();
    _spans.push_back({name, nowNanos(), 0, parent, 0});
    _open.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    DEJAVU_ASSERT(!_open.empty() && _open.back() == index,
                  "spans must close innermost first");
    _spans[static_cast<std::size_t>(index)].end = nowNanos();
    _open.pop_back();
}

void
SpanLog::add(const char *name, std::uint64_t begin, std::uint64_t end,
             int parent, int lane)
{
    _spans.push_back({name, begin, end, parent, lane});
}

void
SpanLog::writeTo(dejavu::obs::TraceRecorder &recorder) const
{
    std::map<int, dejavu::obs::LaneId> lanes;
    for (const Span &span : _spans) {
        auto it = lanes.find(span.lane);
        if (it == lanes.end()) {
            const std::string name = span.lane == 0
                ? std::string("bench/main")
                : "bench/worker-" + std::to_string(span.lane);
            it = lanes.emplace(span.lane,
                               recorder.lane(
                                   name, dejavu::obs::ClockDomain::Wall))
                     .first;
        }
        const std::int64_t begin = recorder.wallMicrosFrom(span.begin);
        recorder.complete(it->second, span.name, begin,
                          recorder.wallMicrosFrom(span.end) - begin);
    }
}

std::string
SpanLog::layersJson(const std::string &workload) const
{
    // Children per parent, then self = duration - union(children).
    std::vector<std::vector<std::size_t>> children(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        if (_spans[i].parent >= 0)
            children[static_cast<std::size_t>(_spans[i].parent)]
                .push_back(i);

    struct Totals
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Totals> byName;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
        for (std::size_t c : children[i])
            covered.emplace_back(
                std::max(_spans[c].begin, span.begin),
                std::min(_spans[c].end, span.end));
        std::sort(covered.begin(), covered.end());
        std::uint64_t union_ = 0;
        std::uint64_t reach = span.begin;
        for (const auto &[b, e] : covered) {
            const std::uint64_t from = std::max(b, reach);
            if (e > from) {
                union_ += e - from;
                reach = e;
            }
        }
        const double dur = static_cast<double>(span.end - span.begin);
        Totals &t = byName[span.name];
        ++t.count;
        t.totalMs += dur * 1e-6;
        t.selfMs += (dur - static_cast<double>(union_)) * 1e-6;
    }

    std::vector<std::pair<std::string, Totals>> rows(byName.begin(),
                                                     byName.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.selfMs > b.second.selfMs;
                     });
    std::ostringstream os;
    os.precision(6);
    os << std::fixed;
    os << "{\n  \"workload\": \"" << workload << "\",\n"
       << "  \"note\": \"self_ms = total_ms minus the time child spans "
          "cover\",\n  \"layers\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &[name, t] = rows[i];
        os << "    {\"name\": \"" << name << "\", \"count\": " << t.count
           << ", \"total_ms\": " << t.totalMs
           << ", \"self_ms\": " << t.selfMs << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
socketPath(const RunConfig &config)
{
    return config.outDir + "/dejavud-" + std::to_string(::getpid())
        + ".sock";
}

std::vector<std::size_t>
sampledMembers(std::size_t members)
{
    const std::size_t stride = members >= 100 ? 19 : 1;
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < members; i += stride)
        picked.push_back(i);
    return picked;
}

void
writeTraceFiles(const RunConfig &config, const SpanLog &spans,
                dejavu::obs::TraceRecorder &recorder)
{
    spans.writeTo(recorder);
    const std::string base = config.outDir + "/" + config.workload;
    {
        std::ofstream out(base + ".trace.json");
        if (!out)
            dejavu::fatal("cannot write ", base, ".trace.json");
        recorder.writeChromeJson(out);
    }
    std::ofstream out(base + ".layers.json");
    if (!out)
        dejavu::fatal("cannot write ", base, ".layers.json");
    out << spans.layersJson(config.workload);
    std::printf("trace: %s.trace.json (%zu events, %llu dropped), "
                "%s.layers.json\n",
                base.c_str(), recorder.eventCount(),
                static_cast<unsigned long long>(recorder.dropped()),
                base.c_str());
}

} // namespace perfbench
