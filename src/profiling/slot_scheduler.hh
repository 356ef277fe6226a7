/**
 * @file
 * Slot scheduling for the §3.3 profiling pool: *which* waiting
 * request gets a host when one frees up — and *which* host — is a
 * policy, not a law. The pluggable ProfilingSlotScheduler (FIFO,
 * shortest-job-first, SLO-debt-first, or the adaptive policy that
 * switches between them on observed contention) is what lets
 * experiments measure how contention policy — not just contention
 * existence — shapes fleet-wide adaptation-time tails.
 *
 * Since the profiling work-queue rework, the waiting view a scheduler
 * picks from covers *all* pool demand: signature collections and
 * queued tuner experiment sequences alike (one ProfilingRequest per
 * queue entry; a coalesced batch of same-class signature collections
 * is one entry carrying its leader's arrival, its longest duration and
 * its members' summed debt). The work queue keeps that view between
 * grants and refreshes its debts from its SLO-debt ledger before each
 * pick, so a policy reads every debtor's debt as of now.
 */

#ifndef DEJAVU_PROFILING_SLOT_SCHEDULER_HH
#define DEJAVU_PROFILING_SLOT_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.hh"

namespace dejavu {

/**
 * One unit of work waiting for a profiling host — the view a slot
 * scheduler picks from.
 */
struct ProfilingRequest
{
    std::size_t member = 0;    ///< Index into the fleet's member table.
    std::uint64_t seq = 0;     ///< Arrival order; never reused.
    SimTime requestedAt = 0;
    SimTime slotDuration = 0;  ///< Host occupancy this work needs.
    double sloDebt = 0.0;      ///< Requester's SLO debt right now.
};

/** A scheduler decision: grant @p request (index into the waiting
 *  view) a slot on @p host (index into the free-host list's values). */
struct SlotGrant
{
    std::size_t request = 0;  ///< Index into the waiting vector.
    std::size_t host = 0;     ///< A host id drawn from freeHosts.
};

/**
 * Policy choosing which waiting request gets a free profiling host
 * next — and which host. Implementations must be deterministic pure
 * functions of the waiting list and free-host list (ties broken by
 * arrival seq; hosts by lowest id), so fleet runs are bit-identical
 * at any experiment-runner thread count.
 */
class ProfilingSlotScheduler
{
  public:
    virtual ~ProfilingSlotScheduler() = default;

    /** Policy name as used in sweep cells and CSV digests. */
    virtual std::string name() const = 0;

    /**
     * Pick the next request to grant.
     * @param waiting non-empty, ordered by arrival (seq ascending).
     * @return index into @p waiting.
     */
    virtual std::size_t pick(
        const std::vector<ProfilingRequest> &waiting) const = 0;

    /**
     * Pick both the request and the host for the next grant. The
     * default placement takes pick()'s request on the lowest-numbered
     * free host (hosts are identical, so lowest-id is the canonical
     * deterministic choice); override to co-design who and where.
     * @param waiting non-empty, ordered by arrival (seq ascending).
     * @param freeHosts non-empty, ascending host ids.
     * @return grant whose request indexes @p waiting and whose host is
     *         an element of @p freeHosts.
     */
    virtual SlotGrant grant(
        const std::vector<ProfilingRequest> &waiting,
        const std::vector<std::size_t> &freeHosts) const
    {
        return {pick(waiting), freeHosts.front()};
    }
};

/** The built-in slot scheduling policies. */
enum class SlotPolicy
{
    Fifo,              ///< Arrival order (the paper's implicit policy).
    ShortestJobFirst,  ///< Smallest slot duration first.
    SloDebtFirst,      ///< Most SLO-violating service first.
    Adaptive,          ///< Switches between the three on observed load.
};

/**
 * Adaptive slot policy: inspects the waiting queue at every grant and
 * delegates to whichever fixed discipline the observed contention
 * calls for (ADARES's adapt-to-load argument applied to the §3.3
 * profiling queue):
 *
 *  - outstanding SLO debt among the waiters >= debtTrigger
 *    -> SLO-debt-first (serve the violating service before its debt
 *    compounds);
 *  - else queue depth >= sjfQueueDepth -> shortest-job-first (a burst
 *    is piling up; drain the many short slots to cut the median);
 *  - else FIFO (an uncontended queue needs no reordering).
 *
 * Each rule inherits its delegate's tie-break (arrival seq, then
 * lowest free host id), so the policy stays a deterministic pure
 * function of the waiting view. Mode counters record how often each
 * delegate was consulted — observability only, never fed back into
 * decisions.
 */
class AdaptiveSlotScheduler : public ProfilingSlotScheduler
{
  public:
    /** Switching thresholds (defaults picked for the 100-service
     *  hourly burst; see bench/fleet_tails.cc). */
    struct Thresholds
    {
        /** Queue depth at/above which a burst is assumed and
         *  shortest-job-first takes over. */
        std::size_t sjfQueueDepth = 8;
        /** Total SLO debt among waiters at/above which the deepest
         *  debtor is served first. */
        double debtTrigger = 1.0;
    };

    /** Default thresholds (sjfQueueDepth = 8, debtTrigger = 1.0). */
    AdaptiveSlotScheduler();
    explicit AdaptiveSlotScheduler(Thresholds thresholds);

    std::string name() const override { return "adaptive"; }

    /** The delegate's pick under the mode the current queue selects. */
    std::size_t pick(
        const std::vector<ProfilingRequest> &waiting) const override;

    /** The mode the current @p waiting queue would select
     *  ("fifo" | "sjf" | "slo-debt"); does not bump counters. */
    std::string modeFor(
        const std::vector<ProfilingRequest> &waiting) const;

    const Thresholds &thresholds() const { return _thresholds; }

    /** Grants decided in FIFO mode so far. */
    std::uint64_t fifoPicks() const { return _fifoPicks; }
    /** Grants decided in shortest-job-first mode so far. */
    std::uint64_t sjfPicks() const { return _sjfPicks; }
    /** Grants decided in SLO-debt-first mode so far. */
    std::uint64_t debtPicks() const { return _debtPicks; }

  private:
    enum class Mode { Fifo, Sjf, SloDebt };

    /** The single threshold rule both pick() and modeFor() consult. */
    Mode modeOf(const std::vector<ProfilingRequest> &waiting) const;

    const ProfilingSlotScheduler &delegateFor(
        const std::vector<ProfilingRequest> &waiting) const;

    Thresholds _thresholds;
    std::unique_ptr<ProfilingSlotScheduler> _fifo;
    std::unique_ptr<ProfilingSlotScheduler> _sjf;
    std::unique_ptr<ProfilingSlotScheduler> _debt;
    mutable std::uint64_t _fifoPicks = 0;
    mutable std::uint64_t _sjfPicks = 0;
    mutable std::uint64_t _debtPicks = 0;
};

/** Factory for the built-in policies. */
std::unique_ptr<ProfilingSlotScheduler> makeSlotScheduler(
    SlotPolicy policy);

/** Parse a policy name: "fifo" | "sjf" | "slo-debt" | "adaptive"
 *  (fatal otherwise). */
SlotPolicy slotPolicyFromName(const std::string &name);

/** All built-in policy names, in SlotPolicy order (the three fixed
 *  disciplines, then "adaptive"). */
const std::vector<std::string> &slotPolicyNames();

} // namespace dejavu

#endif // DEJAVU_PROFILING_SLOT_SCHEDULER_HH
