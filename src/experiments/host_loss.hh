/**
 * @file
 * Host-loss fault injection for fleet scenarios: a deterministic
 * kill/restore schedule over the §3.3 profiling host pool. At each
 * scheduled kill a pool host dies mid-slot — its in-flight grant is
 * abandoned, not-yet-run members are cancelled with
 * WorkCancelReason::HostLost, and queued work waits for survivors —
 * and it comes back idle after a bounded outage, so even an M=1 fleet
 * keeps adapting. Victims rotate round-robin over the pool.
 *
 * This drives DejaVuFleet::failProfilingHost()/restoreProfilingHost()
 * (pass-throughs to ProfilingWorkQueue::failHost()/restoreHost());
 * the no-orphaned-work invariant those maintain is what the scenario
 * conformance suite pins.
 */

#ifndef DEJAVU_EXPERIMENTS_HOST_LOSS_HH
#define DEJAVU_EXPERIMENTS_HOST_LOSS_HH

#include <cstdint>

#include "common/sim_time.hh"

namespace dejavu {

class DejaVuFleet;
class EventQueue;

/**
 * Periodic profiling-host kill/restore schedule for one fleet.
 */
class HostLossSchedule
{
  public:
    struct Config
    {
        /** First kill, relative to start(). Defaults into the reuse
         *  day of the runner's 2-day fleet cells (hour 29), so the
         *  loss lands while the pool is under real demand. */
        SimTime firstKill = hours(29);
        /** Kill-to-kill spacing. */
        SimTime period = hours(6);
        /** How long a victim stays dead; must fit within the period
         *  (the pool never loses two hosts to this schedule at
         *  once). */
        SimTime outage = minutes(45);
        /** When false the schedule never fires. */
        bool enabled = true;
    };

    HostLossSchedule(EventQueue &queue, DejaVuFleet &fleet,
                     Config config);

    /** Arm the schedule (first kill fires firstKill from now). */
    void start();

    bool enabled() const { return _config.enabled; }

    /** Kills injected so far (diagnostics). */
    std::uint64_t kills() const { return _kills; }

  private:
    EventQueue &_queue;
    DejaVuFleet &_fleet;
    Config _config;
    bool _active = false;
    std::size_t _nextVictim = 0;
    std::uint64_t _kills = 0;

    void kill();
};

} // namespace dejavu

#endif // DEJAVU_EXPERIMENTS_HOST_LOSS_HH
