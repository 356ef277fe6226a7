/**
 * @file
 * Parallel experiment engine: fans (scenario x policy x seed) cells
 * across a worker pool. Every cell builds its own Simulation from
 * its seed, so results are bit-identical at any thread count — the
 * merged result vector is ordered by the input cell order, never by
 * completion order. This is what turns the paper's one-figure-at-a-
 * time harness into an embarrassingly parallel sweep: fig06's two
 * policies, fig08's six adaptation-time cells and a 3-policy x 8-seed
 * robustness sweep are all the same call.
 */

#ifndef DEJAVU_EXPERIMENTS_RUNNER_HH
#define DEJAVU_EXPERIMENTS_RUNNER_HH

#include <algorithm>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/autopilot.hh"
#include "common/parallel.hh"
#include "experiments/experiment.hh"
#include "experiments/scenario.hh"

namespace dejavu {

/** One point of a sweep: which scenario, which policy, which seed. */
struct SweepCell
{
    std::string scenario;  ///< e.g. "cassandra-messenger".
    std::string policy;    ///< e.g. "dejavu", "autopilot".
    std::uint64_t seed = 42;

    std::string toString() const
    { return scenario + "/" + policy + "/s" + std::to_string(seed); }
};

/** A finished cell. */
struct CellResult
{
    SweepCell cell;
    ExperimentResult result;
};

/** A finished fleet cell (see runFleetCell). */
struct FleetCellResult
{
    SweepCell cell;
    FleetExperiment::FleetSummary summary;
};

/** Per-(scenario, policy) aggregate over seeds. */
struct SweepAggregate
{
    std::string scenario;
    std::string policy;
    int cells = 0;
    RunningStats savingsPercent;
    RunningStats sloViolationPercent;
    RunningStats meanAdaptationSec;
    RunningStats costDollars;
    RunningStats energySavingsPercent;
};

/**
 * Fans experiment cells across a thread pool; deterministic merge.
 */
class ExperimentRunner
{
  public:
    struct Config
    {
        /** @param threads worker threads; <= 0 means one per
         *  hardware thread. */
        explicit Config(int threads_ = 0) : threads(threads_) {}
        int threads;
    };

    using CellFn = std::function<ExperimentResult(const SweepCell &)>;

    explicit ExperimentRunner(Config config = Config());

    /** Worker threads the next sweep asks for (the pool starts at
     *  most one per hardware thread). */
    int threads() const { return _threads; }

    /**
     * Run every cell (each in its own Simulation) and return results
     * in input order regardless of scheduling. @p fn must be
     * self-contained: it builds the stack for a cell from the cell's
     * seed and runs it (thread safety comes from sharing nothing).
     */
    std::vector<CellResult> sweep(const std::vector<SweepCell> &cells,
                                  const CellFn &fn) const;

    /**
     * Generic sweep over any per-cell result type (deduced from the
     * callable) — same work-stealing pool and input-order merge as
     * sweep(). Fleet sweeps pass runFleetCell directly and get
     * std::vector<FleetExperiment::FleetSummary> back.
     */
    template <typename Fn,
              typename ResultT = std::decay_t<
                  std::invoke_result_t<Fn &, const SweepCell &>>>
    std::vector<ResultT> sweepInto(
        const std::vector<SweepCell> &cells, Fn &&fn) const
    {
        // std::vector<bool> packs bits: adjacent slots share a word,
        // so concurrent per-cell writes would race. Wrap a boolean
        // result in a struct instead.
        static_assert(!std::is_same_v<ResultT, bool>,
                      "sweepInto result type must not be bool");
        std::vector<ResultT> results(cells.size());
        // Result slots are fixed by input order, so the merge is
        // identical at any thread count; the work-stealing pool
        // itself is the shared parallelFor primitive.
        parallelFor(cells.size(), _threads, [&](std::size_t i) {
            results[i] = fn(cells[i]);
        });
        return results;
    }

    /** Cartesian product helper: scenarios x policies x seeds. */
    static std::vector<SweepCell> grid(
        const std::vector<std::string> &scenarios,
        const std::vector<std::string> &policies,
        const std::vector<std::uint64_t> &seeds);

  private:
    int _threads;
};

/**
 * The standard cell function: builds the named scenario stack and
 * drives the named policy over it.
 *
 * Scenarios: "cassandra-messenger", "cassandra-hotmail",
 * "specweb-messenger", "specweb-hotmail"; append "+interference" to
 * inject co-located load (e.g. "cassandra-messenger+interference").
 * Policies: "dejavu", "autopilot", "rightscale-3m", "rightscale-15m",
 * "overprovision", "reactive-tuning".
 */
ExperimentResult runStandardCell(const SweepCell &cell);

/** Build the stack for a standard scenario name (shared with
 *  runStandardCell; fatal() on unknown names). */
std::unique_ptr<ScenarioStack> makeStandardScenario(
    const std::string &scenario, std::uint64_t seed);

/** Arrival spread the "-jit" scenario suffix applies (members'
 *  hourly changes land at deterministic offsets in [0, this)). */
constexpr SimTime kDefaultJitterSpread = minutes(45);

/**
 * One fleet sweep cell: scenario
 * "fleet-<mix>-<N>[-h<M>][-private|-shared][-jit]
 * [+interference][+daemons][+hostloss]" where <mix> is "cassandra"
 * (homogeneous key-value stores), "mixed" (KeyValue + SPECweb +
 * RUBiS round-robin) or "ycsb" (key-value stores cycling the four
 * core YCSB workloads A/B/C/D), <N> is the service count, the
 * optional "-h<M>" suffix sizes the profiling host pool (default 1),
 * the optional "-shared" / "-private" selects the repository
 * composition (default private; "-shared" also coalesces same-class
 * signature collections and cancels reuse-answered tuner items), the
 * optional "-jit" de-synchronizes change arrival by
 * kDefaultJitterSpread, and the trailing "+" suffixes (any order)
 * switch on fault/pressure schedules: "+interference" injects §4.3
 * co-located tenant pressure into every member, "+daemons" runs a
 * BASK-style background dedup/scan daemon on every member's cluster,
 * "+hostloss" arms the deterministic profiling-host kill/restore
 * schedule (e.g. "fleet-ycsb-100+daemons+hostloss"). Every fleet
 * routes signature collections and §3.6 tuner experiments through
 * the profiling work queue. An unrecognized '-' or '+' suffix is
 * fatal with the full grammar. The cell's policy names the §3.3
 * slot scheduler ("fifo" | "sjf" | "slo-debt" | "adaptive").
 * Runs 2 trace days (1 learning + 1 reuse) so 100-service cells stay
 * affordable, and returns the fleet-wide adaptation-time tails plus
 * the aggregate repository and per-item-type pool statistics.
 */
FleetExperiment::FleetSummary runFleetCell(const SweepCell &cell);

/** Build (but don't learn/run) the fleet stack for a fleet-cell
 *  scenario name (shared with runFleetCell). */
std::unique_ptr<FleetStack> makeFleetScenario(
    const std::string &scenario, std::uint64_t seed,
    SlotPolicy policy, int days = 2);

/** Render fleet-cell summaries as CSV — a byte-comparable digest of
 *  a fleet sweep at any thread count. The repo_would_hit (always 0)
 *  and work_mode (always "wq") columns are kept so digests stay
 *  comparable with older sweeps. */
std::string fleetSweepCsv(const std::vector<FleetCellResult> &results);

/** Autopilot's hour-of-day schedule, tuned on day-1 workloads —
 *  "the hourly resource allocations learned during the first day of
 *  the trace" (§4.1). */
Autopilot::Schedule learnAutopilotSchedule(ScenarioStack &stack);

/**
 * Aggregate cell results per (scenario, policy), in first-appearance
 * order — deterministic for a deterministic input order.
 */
std::vector<SweepAggregate> aggregateSweep(
    const std::vector<CellResult> &results);

/** Render aggregates as CSV — a byte-comparable digest of a sweep. */
std::string sweepCsv(const std::vector<SweepAggregate> &aggregates);

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_RUNNER_HH
