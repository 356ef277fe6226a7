/**
 * @file
 * Admission control for dejavud sessions: a lock-free gate that
 * bounds how many sessions the daemon will carry at once.
 *
 * The gate protects the latency budget, not memory: every admitted
 * session costs a handle on its kind's shared snapshot plus
 * classifier scratch, and an unbounded session count would
 * eventually push p99 past the budget for everyone. Rejection is
 * cheap and explicit — the Hello gets HelloAckMsg::kRejected and the
 * client falls back to its local full-capacity policy, exactly as if
 * the daemon were down (docs/SERVING.md, "daemon unreachable" row).
 *
 * Implementation: one CAS loop on an atomic count. No mutex — the
 * gate sits on the session-open path, which socket front-ends hit
 * from many accept threads at once.
 */

#ifndef DEJAVU_SERVING_ADMISSION_HH
#define DEJAVU_SERVING_ADMISSION_HH

#include <atomic>

#include "common/logging.hh"

namespace dejavu {
namespace serving {

/**
 * Bounded session counter. tryAdmit()/release() pair around a
 * session's lifetime; the count never exceeds the limit and never
 * underflows (underflow is a fatal programming error).
 */
class AdmissionGate
{
  public:
    explicit AdmissionGate(int maxSessions) : _max(maxSessions)
    {
        DEJAVU_ASSERT(maxSessions >= 0,
                      "admission limit must be non-negative");
    }

    /** Claim a session slot; false when the daemon is full. */
    bool tryAdmit()
    {
        int current = _active.load(std::memory_order_relaxed);
        while (current < _max) {
            if (_active.compare_exchange_weak(
                    current, current + 1, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return true;
            // current was reloaded by the failed CAS; loop.
        }
        return false;
    }

    /** Return a slot claimed by tryAdmit(). */
    void release()
    {
        const int previous =
            _active.fetch_sub(1, std::memory_order_acq_rel);
        DEJAVU_ASSERT(previous > 0,
                      "admission gate released more sessions than "
                      "it admitted");
    }

    int active() const
    {
        return _active.load(std::memory_order_relaxed);
    }
    int limit() const { return _max; }

  private:
    const int _max;
    std::atomic<int> _active{0};
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_ADMISSION_HH
