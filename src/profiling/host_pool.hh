/**
 * @file
 * The profiling machines of one DejaVu installation — the paper's
 * "one or a few machines" (§3.3) as a scheduler-visible resource.
 * §3.3's Isolation requirement — "because the DejaVu profiler
 * (possibly running on a single machine) might be in charge of
 * characterizing multiple services, we need to make sure that the
 * obtained signatures are not disturbed by other profiling processes
 * running on the same profiler" — is enforced per host: each of the
 * pool's M hosts runs at most one profiling slot at a time.
 */

#ifndef DEJAVU_PROFILING_HOST_POOL_HH
#define DEJAVU_PROFILING_HOST_POOL_HH

#include <cstddef>
#include <vector>

namespace dejavu {

/**
 * Hosts are identified by dense indices [0, hosts()); each host runs
 * at most one profiling slot at a time (per-host isolation). The pool
 * only tracks busy/free state; who gets a free host is the slot
 * scheduler's decision.
 */
class ProfilingHostPool
{
  public:
    /** A pool of @p hosts identical profiling machines (>= 1). */
    explicit ProfilingHostPool(int hosts);

    /** Total machines in the pool. */
    int hosts() const { return static_cast<int>(_busy.size()); }

    /** Hosts currently running a profiling slot. */
    int busy() const { return _busyCount; }

    /** Hosts currently failed (host-loss fault injection). */
    int dead() const { return _deadCount; }

    /** True iff at least one live host is idle. */
    bool anyFree() const { return _busyCount + _deadCount < hosts(); }

    /** Indices of all idle live hosts, ascending (deterministic
     *  order — the tie-break schedulers rely on for host selection). */
    std::vector<std::size_t> freeHosts() const;

    /** Mark @p host busy (fatal if out of range, dead, or already
     *  busy). */
    void acquire(std::size_t host);

    /** Mark @p host idle again (fatal if out of range or not busy). */
    void release(std::size_t host);

    /** @name Host-loss fault injection @{ */
    /** Take @p host out of the pool (it crashed). A busy host loses
     *  its slot — the caller (the work queue) is responsible for
     *  cancelling the work that was running there. Fatal if out of
     *  range or already dead. Invariant after: busy + free + dead ==
     *  hosts. */
    void markDead(std::size_t host);

    /** Bring a dead host back, idle (fatal if not dead). */
    void revive(std::size_t host);
    /** @} */

  private:
    std::vector<char> _busy;  ///< Not vector<bool>: plain flags.
    std::vector<char> _dead;
    int _busyCount = 0;
    int _deadCount = 0;
};

} // namespace dejavu

#endif // DEJAVU_PROFILING_HOST_POOL_HH
