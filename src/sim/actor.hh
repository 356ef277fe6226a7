/**
 * @file
 * Actor base for the event-driven runtime.
 *
 * An Actor is a named participant in one Simulation: it registers
 * itself on construction, is started exactly once when the simulation
 * (re)enters its run loop, and schedules work through tracked helpers
 * so every pending event it owns is cancelled automatically when the
 * actor is destroyed. Trace drivers, the monitor sampler, metrics
 * recorders and the multi-service fleet are all actors interleaving on
 * the one event queue, which is what lets N services and N controllers
 * co-exist deterministically in a single run.
 */

#ifndef DEJAVU_SIM_ACTOR_HH
#define DEJAVU_SIM_ACTOR_HH

#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace dejavu {

class Simulation;

/**
 * A participant in the simulation with tracked event scheduling.
 */
class Actor
{
  public:
    virtual ~Actor();

    Actor(const Actor &) = delete;
    Actor &operator=(const Actor &) = delete;

    const std::string &name() const { return _name; }

    /** Whether onStart() has run. */
    bool started() const { return _started; }

    /** Pending events this actor has scheduled and not yet run. */
    std::size_t pendingEvents() const;

  protected:
    Actor(Simulation &sim, std::string name);

    Simulation &sim() const { return _sim; }
    EventQueue &queue() const;
    SimTime now() const;

    /**
     * One-time initialization hook, called when the owning simulation
     * first runs (never during construction, so derived classes are
     * fully built). Schedule initial events here.
     */
    virtual void onStart() {}

    /** @name Tracked scheduling (auto-cancelled on destruction) @{ */
    EventId at(SimTime when, EventQueue::Callback fn,
               EventBand band = EventBand::Normal);
    EventId after(SimTime delay, EventQueue::Callback fn,
                  EventBand band = EventBand::Normal);
    EventId every(SimTime first, SimTime period, EventQueue::Callback fn,
                  EventBand band = EventBand::Normal);
    /** @} */

    /** Cancel one tracked event. @return true if it was pending. */
    bool cancel(EventId id);

    /** Cancel every pending event this actor scheduled. */
    void cancelAll();

  private:
    friend class Simulation;

    EventId track(EventId id);

    Simulation &_sim;
    std::string _name;
    bool _started = false;
    std::vector<EventId> _scheduled;  ///< May contain already-run ids.
    std::size_t _compactAt = 64;      ///< Next compaction threshold.
};

} // namespace dejavu

#endif // DEJAVU_SIM_ACTOR_HH
