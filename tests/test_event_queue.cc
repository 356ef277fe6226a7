/**
 * @file
 * Unit tests for the DES kernel (sim/event_queue.hh).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace dejavu {
namespace {

TEST(EventQueue, StartsAtZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(seconds(3), [&] { order.push_back(3); });
    q.schedule(seconds(1), [&] { order.push_back(1); });
    q.schedule(seconds(2), [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), seconds(3));
}

TEST(EventQueue, FifoForEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(seconds(5), [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    SimTime observed = -1;
    q.schedule(seconds(10), [&] {
        q.scheduleAfter(seconds(5), [&] { observed = q.now(); });
    });
    q.runAll();
    EXPECT_EQ(observed, seconds(15));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(seconds(1), [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // already cancelled
    q.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelInvalidIdIsFalse)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(kInvalidEvent));
    EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(seconds(1), [&] { ++count; });
    q.schedule(seconds(5), [&] { ++count; });
    const std::size_t executed = q.runUntil(seconds(3));
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), seconds(3));  // clock advances to the limit
    q.runUntil(seconds(10));
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents)
{
    EventQueue q;
    q.runUntil(minutes(7));
    EXPECT_EQ(q.now(), minutes(7));
}

TEST(EventQueue, EventAtExactLimitRuns)
{
    EventQueue q;
    bool ran = false;
    q.schedule(seconds(3), [&] { ran = true; });
    q.runUntil(seconds(3));
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SelfSchedulingChain)
{
    EventQueue q;
    int ticks = 0;
    std::function<void()> tick = [&] {
        if (++ticks < 5)
            q.scheduleAfter(seconds(1), tick);
    };
    q.schedule(0, tick);
    q.runAll();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(q.now(), seconds(4));
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int count = 0;
    q.schedule(seconds(1), [&] { ++count; });
    q.schedule(seconds(2), [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue q;
    const EventId a = q.schedule(seconds(1), [] {});
    q.schedule(seconds(2), [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, ExactBudgetDrainDoesNotTrip)
{
    // A queue that drains in exactly maxEvents events exhausts no
    // budget: nothing is pending, so the runaway guard must not fire.
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(seconds(i), [] {});
    EXPECT_EQ(q.runAll(5), 5u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExactBudgetDrainWithSelfScheduling)
{
    // Also exact when the budget-filling events are created while
    // draining.
    EventQueue q;
    int ticks = 0;
    std::function<void()> tick = [&] {
        if (++ticks < 7)
            q.scheduleAfter(seconds(1), tick);
    };
    q.schedule(0, tick);
    EXPECT_EQ(q.runAll(7), 7u);
    EXPECT_EQ(ticks, 7);
}

TEST(EventQueue, PendingCountsLiveSeriesDuringPeriodicFire)
{
    // While a periodic callback runs its heap entry is popped and the
    // series is not yet re-armed — but the series is still live, so
    // pending()/empty() must agree with isPending().
    EventQueue q;
    EventId id = kInvalidEvent;
    int fires = 0;
    std::size_t pendingDuringFire = 0;
    bool emptyDuringFire = true;
    bool isPendingDuringFire = false;
    id = q.schedulePeriodic(seconds(1), seconds(1), [&] {
        if (++fires == 1) {
            pendingDuringFire = q.pending();
            emptyDuringFire = q.empty();
            isPendingDuringFire = q.isPending(id);
        } else {
            q.cancel(id);
        }
    });
    q.runUntil(minutes(1));
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(pendingDuringFire, 1u);
    EXPECT_FALSE(emptyDuringFire);
    EXPECT_TRUE(isPendingDuringFire);
}

TEST(EventQueue, PendingDropsToZeroOnCancelDuringFire)
{
    EventQueue q;
    EventId id = kInvalidEvent;
    std::size_t pendingAfterSelfCancel = 99;
    id = q.schedulePeriodic(seconds(1), seconds(1), [&] {
        q.cancel(id);
        pendingAfterSelfCancel = q.pending();
    });
    q.runUntil(minutes(1));
    EXPECT_EQ(pendingAfterSelfCancel, 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.isPending(id));
}

TEST(EventQueue, PeriodicSelfCancelStopsSeries)
{
    EventQueue q;
    EventId id = kInvalidEvent;
    int fires = 0;
    id = q.schedulePeriodic(seconds(1), seconds(1), [&] {
        if (++fires == 3) {
            EXPECT_TRUE(q.cancel(id));
        }
    });
    q.runUntil(minutes(5));
    EXPECT_EQ(fires, 3);
    EXPECT_FALSE(q.cancel(id));  // already cancelled
}

TEST(EventQueue, CancelOtherEventAtSameInstant)
{
    // A (Normal, earlier seq) cancels B scheduled for the same
    // instant: B's armed heap entry goes stale and must be skipped.
    EventQueue q;
    bool bRan = false;
    EventId b = kInvalidEvent;
    q.schedule(seconds(1), [&] { EXPECT_TRUE(q.cancel(b)); });
    b = q.schedule(seconds(1), [&] { bRan = true; });
    EXPECT_EQ(q.runAll(), 1u);
    EXPECT_FALSE(bRan);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelArmedPeriodicFromOneShot)
{
    EventQueue q;
    int fires = 0;
    const EventId series =
        q.schedulePeriodic(seconds(1), seconds(1), [&] { ++fires; });
    q.schedule(seconds(2) + 1, [&] { EXPECT_TRUE(q.cancel(series)); });
    q.runUntil(minutes(1));
    EXPECT_EQ(fires, 2);  // fired at 1 s and 2 s, then cancelled
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PeriodicRescheduleAfterCancelGetsFreshId)
{
    EventQueue q;
    const EventId a = q.schedulePeriodic(seconds(1), seconds(1), [] {});
    q.cancel(a);
    const EventId b = q.schedulePeriodic(seconds(1), seconds(1), [] {});
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.isPending(a));
    EXPECT_TRUE(q.isPending(b));
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, ExecutedCountsLifetimeEvents)
{
    EventQueue q;
    q.schedule(seconds(1), [] {});
    q.schedulePeriodic(seconds(2), seconds(2), [] {});
    q.runUntil(seconds(6));
    EXPECT_EQ(q.executed(), 4u);  // one-shot + fires at 2/4/6 s
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(seconds(5), [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(seconds(1), [] {}), "past");
}

TEST(EventQueueDeath, RunawayGuardFires)
{
    EventQueue q;
    std::function<void()> forever = [&] {
        q.scheduleAfter(1, forever);
    };
    q.schedule(0, forever);
    EXPECT_DEATH(q.runAll(1000), "budget");
}

} // namespace
} // namespace dejavu
