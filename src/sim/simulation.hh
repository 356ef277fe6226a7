/**
 * @file
 * Top-level simulation context: clock + event queue + root RNG + the
 * registered actors that drive a run, handed to every component so a
 * whole run is reproducible from one seed.
 *
 * Actors (trace drivers, the monitor sampler, recorders, fleets)
 * register themselves on construction; the simulation starts each of
 * them exactly once when the run loop is first entered, after which
 * all behaviour is event-driven on the shared queue. The simulation
 * can own actors outright (spawn) or merely reference externally owned
 * ones — destruction order is safe either way because actors deregister
 * and cancel their pending events when destroyed.
 */

#ifndef DEJAVU_SIM_SIMULATION_HH
#define DEJAVU_SIM_SIMULATION_HH

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/sim_time.hh"
#include "sim/actor.hh"
#include "sim/event_queue.hh"

namespace dejavu {

/**
 * Owns the event queue, the seed-derived RNG tree and the actor
 * registry.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 42);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &queue() { return _queue; }
    const EventQueue &queue() const { return _queue; }

    SimTime now() const { return _queue.now(); }

    /** Derive an independent RNG stream for a subsystem. */
    Rng forkRng() { return _root.fork(); }

    /**
     * Construct an actor owned by this simulation. Returns a reference
     * that stays valid for the simulation's lifetime.
     */
    template <typename T, typename... Args>
    T &spawn(Args &&...args)
    {
        auto actor = std::make_unique<T>(*this,
                                         std::forward<Args>(args)...);
        T &ref = *actor;
        _owned.push_back(std::move(actor));
        return ref;
    }

    /**
     * Start every registered actor that has not started yet (their
     * onStart() hooks run in registration order). Called implicitly by
     * runUntil/runFor; idempotent. Actors registered after the first
     * start are started on the next call.
     */
    void start();

    /** Advance simulated time, executing due events. */
    void runUntil(SimTime limit)
    {
        start();
        _queue.runUntil(limit);
    }

    /** Advance by a duration (overflow-checked; saturates at the end
     *  of simulated time). */
    void runFor(SimTime duration)
    {
        runUntil(saturatingAdd(now(), duration));
    }

    /**
     * Pre-size the actor registry (and the spawn-ownership table) for
     * @p extra additional registrations — a 10k-member fleet attaches
     * tens of thousands of actors and should not grow the tables
     * incrementally.
     */
    void reserveActors(std::size_t extra)
    {
        _actors.reserve(_actors.size() + extra);
        _owned.reserve(_owned.size() + extra);
    }

    /** Registered actors, in registration order. */
    const std::vector<Actor *> &actors() const { return _actors; }

    std::size_t actorCount() const { return _actors.size(); }

  private:
    friend class Actor;

    void attach(Actor &actor) { _actors.push_back(&actor); }

    void detach(Actor &actor)
    {
        _actors.erase(std::remove(_actors.begin(), _actors.end(),
                                  &actor),
                      _actors.end());
    }

    EventQueue _queue;
    Rng _root;
    std::vector<Actor *> _actors;                 ///< All registered.
    std::vector<std::unique_ptr<Actor>> _owned;   ///< Spawned subset.
};

} // namespace dejavu

#endif // DEJAVU_SIM_SIMULATION_HH
