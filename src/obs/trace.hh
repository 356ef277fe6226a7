/**
 * @file
 * TraceRecorder: structured spans and instants on named lanes, in
 * sim-time or wall-time, exported as Chrome trace-event JSON that
 * Perfetto (ui.perfetto.dev) loads directly.
 *
 * Model
 * -----
 * A *lane* is a named timeline (one per profiling host, per service,
 * per serving session, per phase) and belongs to one clock domain:
 * `Sim` lanes are stamped in simulated microseconds (`SimTime`),
 * `Wall` lanes in real microseconds since the recorder was created
 * (obs::wallNanos()). The exporter maps the two domains to two
 * Perfetto "processes" — pid 1 `sim-time`, pid 2 `wall-time` — so
 * one trace shows both without ever mixing clocks on a track.
 *
 * Events are `begin`/`end` pairs (nestable spans), `complete` spans
 * (start + duration known up front), and `instant` markers. Event
 * names MUST be string literals (the recorder stores the pointer,
 * not a copy); variable text goes through intern() and rides along
 * as the `detail` argument, numeric payloads as `arg`.
 *
 * Storage is a ring of fixed-size slabs in the spirit of
 * `SeriesArena`: appends are a bump-pointer write into the current
 * slab, and when the configured capacity is reached the *oldest*
 * slab is recycled (dropped() counts the lost events) — a crashed or
 * long run keeps its most recent window instead of growing without
 * bound.
 *
 * Determinism contract
 * --------------------
 * Recording only *observes*: it never schedules events, never reads
 * the RNG, and sim-domain timestamps come from the caller's SimTime.
 * Attaching a recorder to a fleet therefore cannot change any digest
 * — tests/test_obs.cc proves byte-identical sweep rows with tracing
 * on vs off, and bench_fleet_tails re-checks it in its exit gate.
 *
 * Cost contract
 * -------------
 * Call sites guard emission with `if (trace)`, so with no recorder
 * attached the cost is one null check. bench/micro_dejavu_ops.cc
 * measures that against no trace statement at all and against
 * recording.
 *
 * Thread safety: a recorder is single-threaded by default (the sim
 * runs one cell per thread with its own recorder). Construct with
 * `Config{.synchronized = true}` for the serving daemon, where many
 * transport threads append concurrently.
 */

#ifndef DEJAVU_OBS_TRACE_HH
#define DEJAVU_OBS_TRACE_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "obs/wall_clock.hh"

namespace dejavu {
namespace obs {

/** Which clock a lane's timestamps are read from. */
enum class ClockDomain : std::uint8_t
{
    Sim,  ///< simulated microseconds (SimTime)
    Wall  ///< real microseconds since recorder creation
};

using LaneId = std::uint32_t;

class TraceRecorder
{
  public:
    static constexpr std::uint32_t kNoDetail = 0xffffffffu;
    static constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

    struct Config
    {
        /** Ring capacity in events; the oldest slab is recycled when
         *  full. Default ≈ 256k events ≈ 12 MB. */
        std::size_t maxEvents = std::size_t{1} << 18;
        /** Lock appends/interns — required when multiple threads
         *  share one recorder (the serving daemon). */
        bool synchronized = false;
    };

    TraceRecorder() : TraceRecorder(Config{}) {}
    explicit TraceRecorder(Config config);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Create (or look up) the lane named @p name in @p domain. */
    LaneId lane(const std::string &name,
                ClockDomain domain = ClockDomain::Sim);

    /** Intern variable text for use as an event's detail argument. */
    std::uint32_t intern(const std::string &text);

    /** Open a nestable span on @p laneId at @p tsMicros. */
    void begin(LaneId laneId, const char *name, std::int64_t tsMicros,
               std::uint32_t detail = kNoDetail,
               std::uint64_t arg = kNoArg)
    {
        append(Event{tsMicros, -1, name, arg, laneId, detail,
                     Phase::Begin});
    }

    /** Close the innermost open span on @p laneId. */
    void end(LaneId laneId, std::int64_t tsMicros)
    {
        append(Event{tsMicros, -1, nullptr, kNoArg, laneId, kNoDetail,
                     Phase::End});
    }

    /** A span whose duration is already known. */
    void complete(LaneId laneId, const char *name,
                  std::int64_t tsMicros, std::int64_t durMicros,
                  std::uint32_t detail = kNoDetail,
                  std::uint64_t arg = kNoArg)
    {
        append(Event{tsMicros, durMicros, name, arg, laneId, detail,
                     Phase::Complete});
    }

    /** A zero-duration marker. */
    void instant(LaneId laneId, const char *name,
                 std::int64_t tsMicros,
                 std::uint32_t detail = kNoDetail,
                 std::uint64_t arg = kNoArg)
    {
        append(Event{tsMicros, -1, name, arg, laneId, detail,
                     Phase::Instant});
    }

    /** Wall microseconds since recorder creation — the timestamp for
     *  Wall-domain lanes. */
    std::int64_t wallMicros() const
    {
        return wallMicrosFrom(wallNanos());
    }

    /** Convert an externally taken obs::wallNanos() /
     *  monotonicNanos() stamp (same clock) into this recorder's
     *  wall-lane microseconds. */
    std::int64_t wallMicrosFrom(std::uint64_t nanos) const
    {
        return (static_cast<std::int64_t>(nanos) -
                static_cast<std::int64_t>(_wallEpochNanos)) /
               1000;
    }

    /** Events currently held (excludes dropped). */
    std::size_t eventCount() const;
    /** Events lost to ring recycling. */
    std::uint64_t dropped() const { return _dropped; }
    std::size_t laneCount() const { return _lanes.size(); }

    /**
     * Write the whole ring as Chrome trace-event JSON ("traceEvents"
     * array object form). Events are emitted sorted by (lane, ts) so
     * every track is monotonic; unmatched begin() spans are closed at
     * the lane's final timestamp. Load the file at ui.perfetto.dev or
     * chrome://tracing.
     */
    void writeChromeJson(std::ostream &os) const;

  private:
    enum class Phase : std::uint8_t
    {
        Begin,
        End,
        Complete,
        Instant
    };

    struct Event
    {
        std::int64_t ts;     ///< microseconds in the lane's domain
        std::int64_t dur;    ///< Complete only; -1 otherwise
        const char *name;    ///< static string literal (or null End)
        std::uint64_t arg;   ///< numeric payload or kNoArg
        LaneId lane;
        std::uint32_t detail;  ///< interned index or kNoDetail
        Phase phase;
    };

    struct Lane
    {
        std::string name;
        ClockDomain domain;
    };

    static constexpr std::size_t kSlabEvents = 512;

    struct Slab
    {
        std::size_t n = 0;
        Event events[kSlabEvents];
    };

    void append(const Event &ev)
    {
        if (_synchronized) {
            MutexLock lock(_mu);
            appendUnlocked(ev);
        } else {
            appendUnlocked(ev);
        }
    }

    void appendUnlocked(const Event &ev)
    {
        if (_slabs.empty() || _slabs.back().n == kSlabEvents)
            rollSlab();
        Slab &slab = _slabs.back();
        slab.events[slab.n++] = ev;
    }

    void rollSlab();
    LaneId laneUnlocked(const std::string &name, ClockDomain domain);
    std::uint32_t internUnlocked(const std::string &text);

    mutable Mutex _mu;
    bool _synchronized = false;
    std::size_t _maxSlabs = 1;
    std::uint64_t _dropped = 0;
    std::uint64_t _wallEpochNanos = 0;
    std::deque<Slab> _slabs;
    std::vector<Lane> _lanes;
    std::map<std::string, LaneId> _laneIndex;
    std::vector<std::string> _interned;
    std::map<std::string, std::uint32_t> _internIndex;
};

} // namespace obs
} // namespace dejavu

#endif // DEJAVU_OBS_TRACE_HH
