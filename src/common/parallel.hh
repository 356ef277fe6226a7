/**
 * @file
 * The one worker pool every parallel surface in the tree runs on, and
 * the parallelFor fan-out built on it.
 *
 * Three surfaces share the pool: ExperimentRunner::sweepInto and the
 * bench drivers (one whole cell per index, through parallelFor),
 * FleetStack::learnAll (the member-local learning half, through
 * parallelFor) and the fleet sampler's drains (FleetSampler, the
 * member-local half of every monitor tick, on the pool a
 * FleetExperiment::run() holds). A pool lives for one such call and
 * never longer, so a process between runs has no worker threads —
 * gtest death tests still fork a single-threaded process.
 *
 * Determinism contract: a task must depend only on its own index or
 * share (and on state safely shared read-only); it must never branch
 * on which thread runs it or on when. Anything it mutates
 * concurrently must be its own slot (disjoint per index) or a
 * structure locked with an annotated Mutex (thread_annotations.hh).
 *
 * Member-local work: a run() asked for it runs every share inside a
 * MemberLocalScope. While a thread is in one, the calls that would
 * make a drain's outcome depend on worker timing — event scheduling,
 * profiling work-queue submit and cancel, repository handle reads and
 * writes, the fleet's SLO-debt and adaptation calls — panic (they
 * assert !inMemberLocalScope()).
 */

#ifndef DEJAVU_COMMON_PARALLEL_HH
#define DEJAVU_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"

namespace dejavu {

namespace detail {
/** Set while this thread runs member-local work. Constant-initialized,
 *  so reading it is one thread-local load, no wrapper call. */
inline thread_local bool memberLocalScope = false;
} // namespace detail

/** True while this thread runs member-local work (see the file
 *  comment): the guarded calls assert it is false. */
inline bool
inMemberLocalScope()
{
    return detail::memberLocalScope;
}

/** Marks this thread's member-local work for the scope's lifetime
 *  (restoring the previous state on exit); a no-op when @p enter is
 *  false. */
class MemberLocalScope
{
  public:
    explicit MemberLocalScope(bool enter = true)
        : _previous(detail::memberLocalScope)
    {
        if (enter)
            detail::memberLocalScope = true;
    }
    ~MemberLocalScope() { detail::memberLocalScope = _previous; }

    MemberLocalScope(const MemberLocalScope &) = delete;
    MemberLocalScope &operator=(const MemberLocalScope &) = delete;

  private:
    bool _previous;
};

/**
 * A fixed set of workers, the constructing thread included as worker
 * 0, that run one task per share per run(). Between runs the started
 * threads wait for work the way the socket transport waits for a
 * reply: they poll, yielding the core between attempts, for a short
 * window, then block. So back-to-back runs (a fleet's drains) pay no
 * wake-up, and an idle pool holds no core a busy thread needs.
 */
class WorkerPool
{
  public:
    /** A pool of @p workers workers (clamped to
     *  [1, hardware_concurrency()]): starts workers() - 1 threads. */
    explicit WorkerPool(int workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Workers, the constructing thread included. */
    int workers() const { return _workers; }

    /**
     * Run @p task(s) for each share s in [0, @p shares), share s on
     * worker s (share 0 on the calling thread), and return once every
     * share has run. @p shares must lie in [1, workers()]. With
     * @p memberLocal every share runs inside a MemberLocalScope. Only
     * the constructing thread calls run(), one call at a time.
     */
    template <typename Task>
    void run(int shares, const Task &task, bool memberLocal = false)
    {
        dispatch(shares, &invoke<Task>, &task, memberLocal);
    }

    /** Workers that ran a share of the last run() — the pool's own
     *  count, kept by the workers as they start their share. */
    int lastRunWorkers() const
    { return _ran.load(std::memory_order_relaxed); }

  private:
    using TaskFn = void (*)(const void *task, int share);

    template <typename Task>
    static void invoke(const void *task, int share)
    {
        (*static_cast<const Task *>(task))(share);
    }

    void dispatch(int shares, TaskFn fn, const void *task,
                  bool memberLocal);
    /** Run share @p worker of the published run (if it has one). */
    void runShare(int worker);
    void workerLoop(int worker);
    /** Poll, then block, until the generation moves past @p seen. */
    std::uint64_t awaitGeneration(std::uint64_t seen);
    /** Poll, then block, until every started thread finished run
     *  @p generation. */
    void awaitDone(std::uint64_t generation);

    int _workers = 1;

    /** @name The published run, written before _generation moves
     *  and read only after a thread observed the move. @{ */
    TaskFn _fn = nullptr;
    const void *_task = nullptr;
    int _shares = 0;
    bool _memberLocal = false;
    /** @} */

    std::atomic<int> _ran{0};
    /** Started threads still to finish the current run; the one that
     *  takes it to zero records the run finished under _mu. */
    std::atomic<int> _pending{0};

    Mutex _mu;
    /** Moves once per run() and once for the stop request. Written
     *  under _mu, so a blocked waiter cannot miss a move; polled
     *  without it. */
    std::atomic<std::uint64_t> _generation{0};
    /** Set (under _mu) before the generation's last move. */
    std::atomic<bool> _stop{false};
    /** The last run every started thread finished. */
    std::uint64_t _finished GUARDED_BY(_mu) = 0;
    int _sleepers GUARDED_BY(_mu) = 0;
    bool _callerWaiting GUARDED_BY(_mu) = false;
    std::condition_variable_any _wake;
    std::condition_variable_any _done;

    /** Declared last: the threads use every member above. */
    std::vector<std::thread> _threads;
};

/**
 * Run @p fn(0..n-1) across up to @p threads workers of a pool built
 * for this one call (work stealing via a shared counter). Blocks
 * until every index has run. With @p threads <= 1 (or n <= 1) runs
 * inline on the calling thread — the sequential path stays
 * allocation- and thread-free, and a 1-thread run is trivially
 * identical to the parallel one.
 */
template <typename Fn>
void
parallelFor(std::size_t n, int threads, Fn &&fn)
{
    if (n == 0)
        return;
    const std::size_t cap = threads <= 1
        ? 1
        : (static_cast<std::size_t>(threads) < n
               ? static_cast<std::size_t>(threads)
               : n);
    if (cap <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Claiming an index via fetch_add is the only cross-worker
    // communication; each index's work is otherwise independent, so
    // claim order can change wall-clock time but never a result.
    WorkerPool pool(static_cast<int>(cap));
    std::atomic<std::size_t> next{0};
    pool.run(pool.workers(), [&next, n, &fn](int) {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            fn(i);
    });
}

} // namespace dejavu

#endif // DEJAVU_COMMON_PARALLEL_HH
