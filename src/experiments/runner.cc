#include "experiments/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <sstream>
#include <thread>

#include "baselines/overprovision.hh"
#include "baselines/reactive_tuning.hh"
#include "baselines/rightscale.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace dejavu {

ExperimentRunner::ExperimentRunner(Config config)
{
    _threads = config.threads;
    if (_threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        _threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

std::vector<CellResult>
ExperimentRunner::sweep(const std::vector<SweepCell> &cells,
                        const CellFn &fn) const
{
    return sweepInto(cells, [&fn](const SweepCell &cell) {
        return CellResult{cell, fn(cell)};
    });
}

std::vector<SweepCell>
ExperimentRunner::grid(const std::vector<std::string> &scenarios,
                       const std::vector<std::string> &policies,
                       const std::vector<std::uint64_t> &seeds)
{
    std::vector<SweepCell> cells;
    cells.reserve(scenarios.size() * policies.size() * seeds.size());
    for (const auto &scenario : scenarios)
        for (const auto &policy : policies)
            for (std::uint64_t seed : seeds)
                cells.push_back({scenario, policy, seed});
    return cells;
}

std::unique_ptr<ScenarioStack>
makeStandardScenario(const std::string &scenario, std::uint64_t seed)
{
    std::string base = scenario;
    ScenarioOptions options;
    options.seed = seed;

    const std::string suffix = "+interference";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        options.interference = true;
        base.erase(base.size() - suffix.size());
    }

    const std::size_t dash = base.find('-');
    if (dash == std::string::npos)
        fatal("scenario name must be '<service>-<trace>', got: ",
              scenario);
    const std::string service = base.substr(0, dash);
    options.traceName = base.substr(dash + 1);

    if (service == "cassandra")
        return makeCassandraScaleOut(options);
    if (service == "specweb")
        return makeSpecWebScaleUp(options);
    fatal("unknown scenario service: ", service,
          " (use cassandra|specweb)");
}

std::unique_ptr<FleetStack>
makeFleetScenario(const std::string &scenario, std::uint64_t seed,
                  SlotPolicy policy, int days)
{
    const char *kShape =
        "'fleet-<mix>-<N>[-h<M>][-private|-shared][-jit]"
        "[+interference][+daemons][+hostloss]' "
        "with <mix> one of cassandra|mixed|ycsb";
    const std::string prefix = "fleet-";
    if (scenario.compare(0, prefix.size(), prefix) != 0)
        fatal("fleet scenario name must be ", kShape, ", got: ",
              scenario);
    std::string rest = scenario.substr(prefix.size());

    // Strip one trailing suffix if present; returns true on a strip.
    const auto stripSuffix = [&rest](const std::string &suffix) {
        if (rest.size() > suffix.size() &&
            rest.compare(rest.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            rest.erase(rest.size() - suffix.size());
            return true;
        }
        return false;
    };

    // Optional trailing "+..." fault/pressure suffixes, in any
    // order: "+interference" injects §4.3 co-located tenant pressure
    // into every member (same knob as the standard single-service
    // scenarios), "+daemons" runs a BASK-style background dedup/scan
    // daemon on every member's cluster, "+hostloss" arms the
    // deterministic profiling-host kill/restore schedule.
    bool interference = false;
    bool daemons = false;
    bool hostLoss = false;
    for (bool stripped = true; stripped;) {
        stripped = false;
        if (stripSuffix("+interference"))
            interference = stripped = true;
        if (stripSuffix("+daemons"))
            daemons = stripped = true;
        if (stripSuffix("+hostloss"))
            hostLoss = stripped = true;
    }
    // Any '+' left over is an unknown suffix: fail loudly with the
    // full grammar instead of letting it fold into the mix or size
    // token and surface as a misleading parse error downstream.
    if (rest.find('+') != std::string::npos)
        fatal("unknown '+' suffix in fleet scenario name: ", scenario,
              "; the shape is ", kShape);

    // Optional trailing "-jit" de-synchronizes change arrival:
    // deterministic per-member offsets spread the hourly burst
    // across kDefaultJitterSpread (see FleetBuilder::arrivalJitter).
    const bool jittered = stripSuffix("-jit");

    // Optional trailing "-shared" / "-private" selects the repository
    // composition (default private — per-controller repositories).
    RepositorySharing sharing = RepositorySharing::Private;
    for (const char *name : {"shared", "private"}) {
        if (stripSuffix(std::string("-") + name)) {
            sharing = repositorySharingFromName(name);
            break;
        }
    }

    // Parse one integer field; fatal unless the whole token is a
    // number (trailing garbage must not silently shrink the fleet).
    const auto parseCount = [&scenario](const std::string &token,
                                        const char *what) {
        int value = 0;
        std::size_t parsed = 0;
        try {
            value = std::stoi(token, &parsed);
        } catch (const std::exception &) {
            fatal("bad ", what, " in scenario name: ", scenario);
        }
        if (parsed != token.size())
            fatal("bad ", what, " in scenario name: ", scenario);
        return value;
    };

    // Optional trailing "-h<M>" sizes the profiling host pool.
    int hosts = 1;
    const std::size_t hostDash = rest.rfind("-h");
    if (hostDash != std::string::npos && hostDash + 2 < rest.size() &&
        rest.find_first_not_of("0123456789", hostDash + 2)
            == std::string::npos) {
        hosts = parseCount(rest.substr(hostDash + 2), "host count");
        if (hosts < 1)
            fatal("profiling pool needs at least one host: ",
                  scenario);
        rest.erase(hostDash);
    }

    const std::size_t dash = rest.rfind('-');
    if (dash == std::string::npos || dash + 1 >= rest.size())
        fatal("fleet scenario name must be ", kShape, ", got: ",
              scenario);
    // Every known '-' suffix is stripped by now, so the last token is
    // the fleet size; a word there is an unknown (or retired) suffix.
    // Fail with the full grammar rather than "bad fleet size".
    if (!std::isdigit(static_cast<unsigned char>(rest[dash + 1])))
        fatal("unknown '-", rest.substr(dash + 1), "' suffix in fleet "
              "scenario name: ", scenario, "; the shape is ", kShape);
    const std::string mix = rest.substr(0, dash);
    const int services =
        parseCount(rest.substr(dash + 1), "fleet size");
    if (services < 1)
        fatal("fleet needs at least one service: ", scenario);

    ScenarioOptions options;
    options.seed = seed;
    options.days = days;
    options.interference = interference;
    options.daemons = daemons;
    options.hostLoss = hostLoss;
    const SimTime jitter = jittered ? kDefaultJitterSpread : 0;

    if (mix == "cassandra")
        return makeCassandraFleet(services, options, seconds(10),
                                  policy, hosts, sharing, jitter);
    if (mix == "mixed")
        return makeMixedFleet(services, options, policy, hosts,
                              sharing, jitter);
    if (mix == "ycsb")
        return makeYcsbFleet(services, options, policy, hosts,
                             sharing, jitter);
    fatal("unknown fleet mix: ", mix,
          " (use cassandra|mixed|ycsb; the scenario shape is ",
          kShape, ")");
}

FleetExperiment::FleetSummary
runFleetCell(const SweepCell &cell)
{
    auto stack = makeFleetScenario(cell.scenario, cell.seed,
                                   slotPolicyFromName(cell.policy));
    stack->learnAll();
    stack->startInjectors();
    stack->experiment->run();
    return stack->experiment->summary();
}

std::string
fleetSweepCsv(const std::vector<FleetCellResult> &results)
{
    std::ostringstream os;
    os << "scenario,policy,seed,services,hosts,sharing,adaptations,"
          "repo_lookups,repo_hit_pct,repo_cross_hits,repo_reused,"
          "repo_would_hit,queue_p50_s,queue_p95_s,queue_p999_s,"
          "queue_max_s,adapt_p50_s,adapt_p95_s,adapt_p999_s,"
          "adapt_max_s,work_mode,sig_slots,tuner_slots,coalesced,"
          "tuner_cancelled,tuner_adopted\n";
    for (const auto &fr : results) {
        const auto &s = fr.summary;
        os << fr.cell.scenario << ',' << fr.cell.policy << ','
           << fr.cell.seed << ',' << s.services << ','
           << s.hosts << ',' << s.sharing << ','
           << s.adaptations << ',' << s.repoLookups << ','
           << Table::num(100.0 * s.repoHitRate, 3) << ','
           // repo_would_hit (always 0) and work_mode (always wq)
           // keep the column layout committed digests pin.
           << s.repoCrossHits << ',' << s.repoReusedEntries << ",0,"
           << Table::num(s.queueDelayP50Sec, 3) << ','
           << Table::num(s.queueDelayP95Sec, 3) << ','
           << Table::num(s.queueDelayP999Sec, 3) << ','
           << Table::num(s.queueDelayMaxSec, 3) << ','
           << Table::num(s.adaptationP50Sec, 3) << ','
           << Table::num(s.adaptationP95Sec, 3) << ','
           << Table::num(s.adaptationP999Sec, 3) << ','
           << Table::num(s.adaptationMaxSec, 3) << ','
           << "wq," << s.signatureSlots << ','
           << s.tunerSlots << ',' << s.coalescedSignatures << ','
           << s.tunerCancelled << ',' << s.tunerAdopted << '\n';
    }
    return os.str();
}

Autopilot::Schedule
learnAutopilotSchedule(ScenarioStack &stack)
{
    Autopilot::Schedule schedule;
    Tuner tuner(*stack.profiler, stack.controllerConfig.slo,
                stack.controllerConfig.searchSpace);
    const auto workloads = stack.experiment->learningWorkloads();
    for (int h = 0; h < 24; ++h) {
        const std::size_t idx = std::min<std::size_t>(
            static_cast<std::size_t>(h), workloads.size() - 1);
        schedule[static_cast<std::size_t>(h)] =
            tuner.tune(workloads[idx]).allocation;
    }
    return schedule;
}

ExperimentResult
runStandardCell(const SweepCell &cell)
{
    auto stack = makeStandardScenario(cell.scenario, cell.seed);
    if (stack->injector)
        stack->injector->start();

    if (cell.policy == "dejavu") {
        stack->learnDayOne();
        DejaVuPolicy policy(*stack->service, *stack->controller);
        return stack->experiment->run(policy);
    }
    if (cell.policy == "autopilot") {
        const auto schedule = learnAutopilotSchedule(*stack);
        Autopilot policy(*stack->service, schedule);
        return stack->experiment->run(policy);
    }
    if (cell.policy == "rightscale-3m" ||
        cell.policy == "rightscale-15m") {
        RightScalePolicy::Config cfg;
        cfg.resizeCalmTime =
            cell.policy == "rightscale-3m" ? minutes(3) : minutes(15);
        RightScalePolicy policy(*stack->service,
                                stack->sim->forkRng(), cfg);
        return stack->experiment->run(policy);
    }
    if (cell.policy == "overprovision") {
        OverprovisionPolicy policy(
            *stack->service, stack->cluster->maxAllocation());
        return stack->experiment->run(policy);
    }
    if (cell.policy == "reactive-tuning") {
        ReactiveTuningPolicy policy(*stack->service, *stack->profiler,
                                    stack->controllerConfig.slo,
                                    stack->controllerConfig.searchSpace);
        return stack->experiment->run(policy);
    }
    fatal("unknown policy in sweep cell: ", cell.policy);
}

std::vector<SweepAggregate>
aggregateSweep(const std::vector<CellResult> &results)
{
    std::vector<SweepAggregate> rows;
    auto rowFor = [&rows](const SweepCell &cell) -> SweepAggregate & {
        for (auto &row : rows)
            if (row.scenario == cell.scenario &&
                row.policy == cell.policy)
                return row;
        rows.push_back({cell.scenario, cell.policy, 0, {}, {}, {}, {},
                        {}});
        return rows.back();
    };
    for (const auto &cr : results) {
        SweepAggregate &row = rowFor(cr.cell);
        ++row.cells;
        row.savingsPercent.add(cr.result.savingsPercent);
        row.sloViolationPercent.add(
            100.0 * cr.result.sloViolationFraction);
        row.meanAdaptationSec.add(cr.result.adaptationSec.mean());
        row.costDollars.add(cr.result.costDollars);
        row.energySavingsPercent.add(cr.result.energySavingsPercent);
    }
    return rows;
}

std::string
sweepCsv(const std::vector<SweepAggregate> &aggregates)
{
    std::ostringstream os;
    os << "scenario,policy,cells,savings_pct,slo_violation_pct,"
          "adaptation_s,cost_usd,energy_savings_pct\n";
    for (const auto &row : aggregates) {
        os << row.scenario << ',' << row.policy << ',' << row.cells
           << ',' << Table::num(row.savingsPercent.mean(), 3) << ','
           << Table::num(row.sloViolationPercent.mean(), 3) << ','
           << Table::num(row.meanAdaptationSec.mean(), 3) << ','
           << Table::num(row.costDollars.mean(), 3) << ','
           << Table::num(row.energySavingsPercent.mean(), 3) << '\n';
    }
    return os.str();
}

} // namespace dejavu
