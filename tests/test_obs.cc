/**
 * @file
 * Tests for the unified observability layer (src/obs/): the
 * TraceRecorder's ring storage and Chrome trace-event JSON exporter
 * (schema-validated with a minimal JSON walker, both on a fresh
 * recording and on the committed sample trace), the MetricsRegistry's
 * kv and Prometheus writers plus their concurrency contract, the
 * power-of-two histogram's quantile bounds, and the load-bearing
 * determinism claim: attaching a recorder to a fleet cell changes no
 * digest byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "experiments/runner.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dejavu {
namespace {

// --------------------------------------------------------------------
// A minimal JSON reader — just enough to validate the trace schema
// without growing a dependency. Objects keep member order; numbers
// are doubles (trace timestamps fit exactly).
// --------------------------------------------------------------------

struct Json
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;  // Array
    std::vector<std::pair<std::string, Json>> members;  // Object

    const Json *find(const std::string &key) const
    {
        for (const auto &[name, value] : members)
            if (name == key)
                return &value;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _text(text) {}

    /** Parse the whole input; sets ok() false on any syntax error. */
    Json parse()
    {
        Json v = value();
        skipWs();
        if (_pos != _text.size())
            _ok = false;
        return v;
    }

    bool ok() const { return _ok; }

  private:
    void skipWs()
    {
        while (_pos < _text.size()
               && std::isspace(static_cast<unsigned char>(
                   _text[_pos])))
            ++_pos;
    }

    bool consume(char c)
    {
        skipWs();
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    Json value()
    {
        skipWs();
        if (_pos >= _text.size()) {
            _ok = false;
            return {};
        }
        const char c = _text[_pos];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return {};
        }
        return number();
    }

    Json object()
    {
        Json v;
        v.type = Json::Type::Object;
        consume('{');
        if (consume('}'))
            return v;
        do {
            Json key = string();
            if (!consume(':')) {
                _ok = false;
                return v;
            }
            v.members.emplace_back(std::move(key.str), value());
        } while (consume(','));
        if (!consume('}'))
            _ok = false;
        return v;
    }

    Json array()
    {
        Json v;
        v.type = Json::Type::Array;
        consume('[');
        if (consume(']'))
            return v;
        do {
            v.items.push_back(value());
        } while (consume(','));
        if (!consume(']'))
            _ok = false;
        return v;
    }

    Json string()
    {
        Json v;
        v.type = Json::Type::String;
        if (!consume('"')) {
            _ok = false;
            return v;
        }
        while (_pos < _text.size() && _text[_pos] != '"') {
            char c = _text[_pos++];
            if (c == '\\' && _pos < _text.size()) {
                const char esc = _text[_pos++];
                switch (esc) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'u':
                    _pos += 4;  // \uXXXX — keep a placeholder
                    c = '?';
                    break;
                default: c = esc; break;
                }
            }
            v.str.push_back(c);
        }
        if (!consume('"'))
            _ok = false;
        return v;
    }

    Json boolean()
    {
        Json v;
        v.type = Json::Type::Bool;
        if (_text[_pos] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    Json number()
    {
        Json v;
        v.type = Json::Type::Number;
        const char *start = _text.c_str() + _pos;
        char *end = nullptr;
        v.number = std::strtod(start, &end);
        if (end == start) {
            _ok = false;
            return v;
        }
        _pos += static_cast<std::size_t>(end - start);
        return v;
    }

    void literal(const char *word)
    {
        const std::string w(word);
        if (_text.compare(_pos, w.size(), w) == 0)
            _pos += w.size();
        else
            _ok = false;
    }

    const std::string &_text;
    std::size_t _pos = 0;
    bool _ok = true;
};

// --------------------------------------------------------------------
// The trace-schema validator shared by the fresh-recording test and
// the committed-sample golden test.
// --------------------------------------------------------------------

/** Validate the Chrome trace-event contract writeChromeJson promises:
 *  object form with a traceEvents array; every event carries
 *  name/ph/pid/tid; ph is one of B/E/X/i/M; X events carry dur;
 *  instants carry thread scope; per-(pid, tid) track timestamps are
 *  monotonic and B/E nesting is balanced. @p payloadOut (optional)
 *  receives the number of non-metadata events. */
void
validateTrace(const Json &root, std::size_t *payloadOut = nullptr)
{
    if (payloadOut != nullptr)
        *payloadOut = 0;
    EXPECT_EQ(root.type, Json::Type::Object);
    const Json *display = root.find("displayTimeUnit");
    ASSERT_NE(display, nullptr) << "missing displayTimeUnit";
    const Json *events = root.find("traceEvents");
    EXPECT_NE(events, nullptr) << "missing traceEvents";
    if (events == nullptr)
        return;
    EXPECT_EQ(events->type, Json::Type::Array);

    struct Track
    {
        double lastTs = 0.0;
        bool any = false;
        int depth = 0;
    };
    std::map<std::pair<double, double>, Track> tracks;
    std::size_t payloadEvents = 0;

    for (const Json &ev : events->items) {
        EXPECT_EQ(ev.type, Json::Type::Object);
        const Json *name = ev.find("name");
        const Json *ph = ev.find("ph");
        const Json *pid = ev.find("pid");
        const Json *tid = ev.find("tid");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        ASSERT_NE(tid, nullptr);
        EXPECT_EQ(ph->str.size(), 1u);
        const char phase = ph->str.empty() ? '?' : ph->str[0];
        EXPECT_TRUE(phase == 'B' || phase == 'E' || phase == 'X'
                    || phase == 'i' || phase == 'M')
            << "unknown phase " << ph->str;
        if (phase == 'M')
            continue;  // metadata names tracks, carries no ts

        ++payloadEvents;
        const Json *ts = ev.find("ts");
        ASSERT_NE(ts, nullptr) << "payload event without ts";
        Track &track = tracks[{pid->number, tid->number}];
        if (track.any) {
            EXPECT_GE(ts->number, track.lastTs)
                << "track (" << pid->number << ", " << tid->number
                << ") not monotonic";
        }
        track.lastTs = ts->number;
        track.any = true;
        if (phase == 'B')
            ++track.depth;
        if (phase == 'E') {
            --track.depth;
            EXPECT_GE(track.depth, 0) << "E without matching B";
        }
        if (phase == 'X') {
            const Json *dur = ev.find("dur");
            ASSERT_NE(dur, nullptr) << "X event without dur";
            EXPECT_GE(dur->number, 0.0);
        }
        if (phase == 'i') {
            const Json *scope = ev.find("s");
            ASSERT_NE(scope, nullptr) << "instant without scope";
        }
    }
    for (const auto &[key, track] : tracks)
        EXPECT_EQ(track.depth, 0)
            << "unbalanced spans on track (" << key.first << ", "
            << key.second << ")";
    if (payloadOut != nullptr)
        *payloadOut = payloadEvents;
}

Json
parseTrace(const std::string &text)
{
    JsonParser parser(text);
    Json root = parser.parse();
    EXPECT_TRUE(parser.ok()) << "trace JSON failed to parse";
    return root;
}

// --------------------------------------------------------------------
// TraceRecorder
// --------------------------------------------------------------------

TEST(TraceRecorder, RecordsSpansAndInstants)
{
    obs::TraceRecorder trace;
    const obs::LaneId queue = trace.lane("pool/queue");
    const obs::LaneId host = trace.lane("pool/host-0");
    EXPECT_EQ(trace.lane("pool/queue"), queue) << "lanes deduplicate";
    EXPECT_EQ(trace.laneCount(), 2u);

    trace.instant(queue, "submit", 10);
    trace.begin(host, "slot", 20, trace.intern("svc-a"), 7);
    trace.end(host, 30);
    trace.complete(queue, "adapt", 15, 25);
    EXPECT_EQ(trace.eventCount(), 4u);
    EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorder, RingRecyclesOldestSlab)
{
    obs::TraceRecorder::Config config;
    config.maxEvents = 1024;  // two 512-event slabs
    obs::TraceRecorder trace(config);
    const obs::LaneId lane = trace.lane("ring");
    for (int i = 0; i < 1536; ++i)
        trace.instant(lane, "tick", i);
    EXPECT_EQ(trace.eventCount(), 1024u);
    EXPECT_EQ(trace.dropped(), 512u);
}

TEST(TraceRecorder, ChromeJsonSchemaHolds)
{
    obs::TraceRecorder trace;
    const obs::LaneId queue = trace.lane("pool/queue");
    const obs::LaneId host = trace.lane("pool/host-0");
    const obs::LaneId learn =
        trace.lane("phase/learn", obs::ClockDomain::Wall);

    // Deliberately append out of timestamp order across lanes (the
    // exporter sorts per lane) and leave one span unmatched (the
    // exporter closes it at the lane's final timestamp).
    trace.instant(queue, "submit", 50, trace.intern("svc-b"), 3);
    trace.begin(host, "slot", 10);
    trace.end(host, 40);
    trace.complete(queue, "adapt", 5, 30);
    trace.begin(host, "outage", 60);  // never ended
    trace.instant(host, "host.lost", 70);
    trace.begin(learn, "learn.prepare", 0);
    trace.end(learn, 9);

    std::ostringstream os;
    trace.writeChromeJson(os);
    const Json root = parseTrace(os.str());
    std::size_t payload = 0;
    validateTrace(root, &payload);
    // 8 appended + 1 synthesized close for the dangling begin.
    EXPECT_EQ(payload, 9u);

    // Both clock domains must surface as their own processes.
    const std::string text = os.str();
    EXPECT_NE(text.find("\"sim-time\""), std::string::npos);
    EXPECT_NE(text.find("\"wall-time\""), std::string::npos);
    EXPECT_NE(text.find("\"pool/host-0\""), std::string::npos);
    EXPECT_NE(text.find("\"svc-b\""), std::string::npos)
        << "interned detail text missing from args";
}

TEST(TraceRecorder, CommittedSampleTraceIsValid)
{
    // The golden file: the sample trace bench_fleet_tails --trace-out
    // commits (docs/traces/) must stay loadable — this is the "loads
    // in Perfetto" acceptance proxy CI can run.
    const std::string path = std::string(DEJAVU_SOURCE_DIR)
        + "/docs/traces/fleet-ycsb-100+daemons+hostloss.trace.json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing committed sample trace: " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const Json root = parseTrace(buffer.str());
    std::size_t payload = 0;
    validateTrace(root, &payload);
    EXPECT_GT(payload, 1000u)
        << "sample trace suspiciously small for a 100-service cell";
    const std::string text = buffer.str();
    EXPECT_NE(text.find("\"host.lost\""), std::string::npos)
        << "host-loss scenario without host.lost instants";
    EXPECT_NE(text.find("\"learnPrepared\""), std::string::npos)
        << "learn phase spans missing";
}

TEST(TraceRecorder, SynchronizedConcurrentAppends)
{
    obs::TraceRecorder::Config config;
    config.synchronized = true;
    config.maxEvents = 1 << 15;
    obs::TraceRecorder trace(config);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 4000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&trace, t] {
            const obs::LaneId lane = trace.lane(
                "session/" + std::to_string(t),
                obs::ClockDomain::Wall);
            for (int i = 0; i < kPerThread; ++i) {
                const std::int64_t ts = i * 2;
                trace.complete(lane, "sample.hit", ts, 1,
                               obs::TraceRecorder::kNoDetail,
                               static_cast<std::uint64_t>(i));
            }
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(trace.eventCount() + trace.dropped(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::ostringstream os;
    trace.writeChromeJson(os);
    const Json root = parseTrace(os.str());
    validateTrace(root);
}

// --------------------------------------------------------------------
// LatencyHistogram + MetricsRegistry
// --------------------------------------------------------------------

TEST(LatencyHistogram, QuantileBoundsBracketTheSample)
{
    obs::LatencyHistogram hist;
    EXPECT_EQ(hist.quantileNanos(0.5), 0u) << "empty histogram";
    EXPECT_EQ(hist.quantileBoundsNanos(0.99).upper, 0u);

    // 90 fast samples in [128, 255] ns, 10 slow in [4096, 8191] ns.
    for (int i = 0; i < 90; ++i)
        hist.record(200);
    for (int i = 0; i < 10; ++i)
        hist.record(5000);

    const auto p50 = hist.quantileBoundsNanos(0.5);
    EXPECT_EQ(p50.lower, 128u);
    EXPECT_EQ(p50.upper, 255u);
    const auto p99 = hist.quantileBoundsNanos(0.99);
    EXPECT_EQ(p99.lower, 4096u);
    EXPECT_EQ(p99.upper, 8191u);
    // quantileNanos stays the conservative upper bound.
    EXPECT_EQ(hist.quantileNanos(0.99), p99.upper);
    EXPECT_LE(p99.lower, 5000u);
    EXPECT_GE(p99.upper, 5000u);
    EXPECT_EQ(hist.count(), 100u);
    EXPECT_EQ(hist.sumNanos(), 90u * 200u + 10u * 5000u);
}

TEST(MetricsRegistry, HandlesAreStableAndKindChecked)
{
    obs::MetricsRegistry registry;
    obs::Counter &c = registry.counter("fleet.adaptations");
    c.inc(41);
    registry.counter("fleet.adaptations").inc();
    EXPECT_EQ(c.value(), 42u) << "counter() must find, not recreate";
    registry.setGauge("fleet.repo.hit_rate", 0.75);
    registry.histogram("serving.latency").record(1000);
    // Three entries: one line each for the counter and the gauge,
    // five for the histogram.
    const std::string kv = registry.kv();
    EXPECT_EQ(std::count(kv.begin(), kv.end(), '\n'), 7);
}

TEST(MetricsRegistry, KvFormatIsSortedWithHistogramBounds)
{
    obs::MetricsRegistry registry;
    registry.counter("b.count").inc(7);
    registry.setGauge("a.rate", 0.5);
    obs::LatencyHistogram &hist = registry.histogram("c.latency");
    for (int i = 0; i < 4; ++i)
        hist.record(200);

    const std::string kv = registry.kv();
    std::istringstream in(kv);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 7u);
    EXPECT_EQ(lines[0], "a.rate 0.5");
    EXPECT_EQ(lines[1], "b.count 7");
    EXPECT_EQ(lines[2], "c.latency_count 4");
    // Both edges of the quantile bucket are reported — the honest
    // answer a power-of-two histogram can give.
    EXPECT_EQ(lines[3], "c.latency_p50_lo_ns 128");
    EXPECT_EQ(lines[4], "c.latency_p50_ns 255");
    EXPECT_EQ(lines[5], "c.latency_p99_lo_ns 128");
    EXPECT_EQ(lines[6], "c.latency_p99_ns 255");
}

TEST(MetricsRegistry, PrometheusExposition)
{
    obs::MetricsRegistry registry;
    registry.counter("serving.samples").inc(3);
    registry.setGauge("fleet.repo.hit_rate", 0.9);
    obs::LatencyHistogram &hist =
        registry.histogram("serving.latency");
    hist.record(200);   // bucket [128, 255]
    hist.record(5000);  // bucket [4096, 8191]

    std::ostringstream os;
    registry.writePrometheus(os);
    const std::string text = os.str();

    EXPECT_NE(text.find("# TYPE serving_samples counter"),
              std::string::npos);
    EXPECT_NE(text.find("serving_samples 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE fleet_repo_hit_rate gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serving_latency histogram"),
              std::string::npos);
    EXPECT_NE(text.find("serving_latency_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos)
        << "cumulative series must end at +Inf with the total";
    EXPECT_NE(text.find("serving_latency_sum 5.2e-06"),
              std::string::npos)
        << "sum must be seconds (5200 ns)";
}

TEST(MetricsRegistry, ConcurrentUpdatesAndScrapes)
{
    obs::MetricsRegistry registry;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&registry] {
            obs::Counter &hits = registry.counter("serving.samples");
            obs::LatencyHistogram &latency =
                registry.histogram("serving.latency");
            for (int i = 0; i < kPerThread; ++i) {
                hits.inc();
                latency.record(
                    static_cast<std::uint64_t>(100 + i % 1000));
                registry.setGauge("serving.rate",
                                  static_cast<double>(i));
            }
        });
    // A scraper racing the writers: relaxed snapshots must be safe
    // (this is what the TSan CI leg checks).
    threads.emplace_back([&registry] {
        for (int i = 0; i < 50; ++i) {
            std::ostringstream os;
            registry.writePrometheus(os);
            std::ostringstream kv;
            registry.writeKv(kv);
        }
    });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(registry.counter("serving.samples").value(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(registry.histogram("serving.latency").count(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

// --------------------------------------------------------------------
// The determinism claim: tracing observes, never schedules.
// --------------------------------------------------------------------

TEST(TraceDeterminism, FleetDigestIdenticalTracedVsNot)
{
    setLogLevel(LogLevel::Silent);
    const SweepCell cell{"fleet-mixed-100-h4-shared", "fifo", 42};
    std::string csv[2];
    for (int traced = 0; traced < 2; ++traced) {
        obs::TraceRecorder recorder;
        auto stack = makeFleetScenario(
            cell.scenario, cell.seed,
            slotPolicyFromName(cell.policy));
        if (traced)
            stack->attachTrace(recorder);
        stack->learnAll();
        stack->startInjectors();
        stack->experiment->run();
        std::vector<FleetCellResult> rows;
        rows.push_back({cell, stack->experiment->summary()});
        csv[traced] = fleetSweepCsv(rows);
        if (traced) {
            EXPECT_GT(recorder.eventCount(), 0u)
                << "recorder attached but nothing was traced";
        }
    }
    EXPECT_EQ(csv[0], csv[1])
        << "attaching a recorder changed the sweep digest";
}

} // namespace
} // namespace dejavu
