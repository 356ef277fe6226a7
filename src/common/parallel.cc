#include "common/parallel.hh"

#include <algorithm>
#include <sched.h>

#include "common/logging.hh"
#include "common/stats.hh"

namespace dejavu {

namespace {

/** How long a waiting thread polls before it blocks. A fleet's
 *  drains come back within it, so its workers poll straight through
 *  a run, and only a longer gap (an hour boundary's changes) costs a
 *  wake-up, on top of a wait that was long anyway. Measured on a
 *  4-vCPU host, 4 workers, scratch runs of the perfbench fleets: the
 *  socket transport's 50 µs window let workers sleep before nearly
 *  every drain, and a 600-member fleet's observe phase took as long
 *  as on one worker; 200 µs and 1 ms ran the 600-member fleet alike
 *  (medians 0.238 and 0.236 s, 6 runs each), while the 400-member
 *  YCSB fleet with daemons, whose drains are further apart, ran 7%
 *  faster at 1 ms (0.339 against 0.315 s). */
constexpr std::uint64_t kPollWindowNanos = 1'000'000;

/** Give the core away between two empty polls, so a poller never
 *  holds a core another thread needs. */
void
yieldCore()
{
    // Shares compute the same bytes whatever the timing
    // (DrainSplit.* in tests/test_fleet_sampler.cc).
    // lint-allow(sleep): pool timing never reaches a result
    ::sched_yield();
}

} // namespace

WorkerPool::WorkerPool(int workers)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const int cap = hw > 0 ? static_cast<int>(hw) : 1;
    _workers = std::clamp(workers, 1, cap);
    _threads.reserve(static_cast<std::size_t>(_workers - 1));
    for (int w = 1; w < _workers; ++w)
        _threads.emplace_back([this, w] { workerLoop(w); });
}

WorkerPool::~WorkerPool()
{
    {
        MutexLock lock(_mu);
        _stop.store(true, std::memory_order_relaxed);
        _generation.store(_generation.load(std::memory_order_relaxed) + 1,
                          std::memory_order_release);
        _wake.notify_all();
    }
    for (std::thread &thread : _threads)
        thread.join();
}

void
WorkerPool::dispatch(int shares, TaskFn fn, const void *task,
                     bool memberLocal)
{
    DEJAVU_ASSERT(shares >= 1 && shares <= _workers,
                  "worker pool run with ", shares, " shares on ",
                  _workers, " workers");
    _fn = fn;
    _task = task;
    _shares = shares;
    _memberLocal = memberLocal;
    _ran.store(0, std::memory_order_relaxed);
    _pending.store(static_cast<int>(_threads.size()),
                   std::memory_order_relaxed);
    // The release store publishes the run to pollers; a blocked
    // thread checks the generation under the same lock.
    std::uint64_t generation;
    {
        MutexLock lock(_mu);
        generation = _generation.load(std::memory_order_relaxed) + 1;
        _generation.store(generation, std::memory_order_release);
        if (_sleepers > 0)
            _wake.notify_all();
    }
    runShare(0);
    awaitDone(generation);
}

void
WorkerPool::runShare(int worker)
{
    if (worker >= _shares)
        return;
    _ran.fetch_add(1, std::memory_order_relaxed);
    MemberLocalScope scope(_memberLocal);
    _fn(_task, worker);
}

void
WorkerPool::workerLoop(int worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        seen = awaitGeneration(seen);
        if (_stop.load(std::memory_order_relaxed))
            return;
        runShare(worker);
        if (_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            MutexLock lock(_mu);
            _finished = seen;
            if (_callerWaiting)
                _done.notify_one();
        }
    }
}

std::uint64_t
WorkerPool::awaitGeneration(std::uint64_t seen)
{
    const std::uint64_t start = monotonicNanos();
    do {
        const std::uint64_t generation =
            _generation.load(std::memory_order_acquire);
        if (generation != seen)
            return generation;
        yieldCore();
    } while (monotonicNanos() - start < kPollWindowNanos);

    MutexLock lock(_mu);
    ++_sleepers;
    std::uint64_t generation;
    while ((generation = _generation.load(std::memory_order_relaxed))
           == seen)
        _wake.wait(_mu);
    --_sleepers;
    return generation;
}

void
WorkerPool::awaitDone(std::uint64_t generation)
{
    const std::uint64_t start = monotonicNanos();
    while (_pending.load(std::memory_order_acquire) != 0) {
        if (monotonicNanos() - start >= kPollWindowNanos) {
            MutexLock lock(_mu);
            _callerWaiting = true;
            while (_finished != generation)
                _done.wait(_mu);
            _callerWaiting = false;
            return;
        }
        yieldCore();
    }
}

} // namespace dejavu
